package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"samrdlb/internal/geom"
)

// Property tests over the patch transfer operators: these are the
// primitives every exchange in the system reduces to, so they carry
// invariants rather than example-based expectations.

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(seed))}
}

// randomRegionIn returns a random non-empty sub-box of b.
func randomRegionIn(rng *rand.Rand, b geom.Box) geom.Box {
	var lo, hi geom.Index
	for d := 0; d < 3; d++ {
		s := b.Shape()[d]
		a := rng.Intn(s)
		z := a + rng.Intn(s-a)
		lo[d], hi[d] = b.Lo[d]+a, b.Lo[d]+z
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// TestPackUnpackRoundTripProperty: unpacking a packed region restores
// it and writes nothing else.
func TestPackUnpackRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPatch(geom.UnitCube(6), 0, 1, "a", "b")
		p.FillFunc("a", func(geom.Index) float64 { return rng.Float64() })
		p.FillFunc("b", func(geom.Index) float64 { return rng.Float64() })
		region := randomRegionIn(rng, p.Grown())
		data := pack(p, region, []string{"a", "b"})
		q := NewPatch(p.Box, 0, 1, "a", "b")
		unpack(q, region, []string{"a", "b"}, data)
		ok := true
		region.ForEach(func(i geom.Index) {
			if q.At("a", i) != p.At("a", i) || q.At("b", i) != p.At("b", i) {
				ok = false
			}
		})
		// Cells outside the region stay zero.
		q.Box.ForEach(func(i geom.Index) {
			if !region.Contains(i) && q.At("a", i) != 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, quickCfg(11)); err != nil {
		t.Error(err)
	}
}

func TestRestrictConservationProperty(t *testing.T) {
	// For any fine data, coarse mass × r³ equals fine mass over the
	// covered region (the finite-volume conservation invariant).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2
		coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
		fine := NewPatch(geom.UnitCube(8), 1, 0, "q")
		fine.FillFunc("q", func(geom.Index) float64 { return rng.Float64()*2 - 1 })
		Restrict(coarse, fine, "q", r)
		cMass := coarse.Sum("q") * float64(r*r*r)
		fMass := fine.Sum("q")
		diff := cMass - fMass
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-10*(1+absf(fMass))
	}
	if err := quick.Check(f, quickCfg(12)); err != nil {
		t.Error(err)
	}
}

func TestProlongPreservesBoundsProperty(t *testing.T) {
	// Piecewise-constant prolongation introduces no new extrema.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
		coarse.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
		fine := NewPatch(geom.UnitCube(8), 1, 0, "q")
		Prolong(fine, coarse, "q", 2, fine.Box)
		lo, hi := 2.0, -1.0
		coarse.Box.ForEach(func(i geom.Index) {
			v := coarse.At("q", i)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		})
		ok := true
		fine.Box.ForEach(func(i geom.Index) {
			v := fine.At("q", i)
			if v < lo-1e-15 || v > hi+1e-15 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, quickCfg(13)); err != nil {
		t.Error(err)
	}
}

func TestCopyRegionIdempotentProperty(t *testing.T) {
	// Copying the same region twice equals copying once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := NewPatch(geom.UnitCube(5), 0, 1, "q")
		src.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
		dst1 := NewPatch(geom.BoxFromShape(geom.Index{3, 0, 0}, geom.Index{5, 5, 5}), 0, 1, "q")
		dst2 := dst1.Clone()
		region := randomRegionIn(rng, geom.UnitCube(8))
		CopyRegion(dst1, src, "q", region)
		CopyRegion(dst2, src, "q", region)
		CopyRegion(dst2, src, "q", region)
		for k, v := range dst1.Field("q") {
			if dst2.Field("q")[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(14)); err != nil {
		t.Error(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
