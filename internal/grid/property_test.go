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

func TestPackUnpackRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPatch(geom.UnitCube(6), 0, 1, "a", "b")
		p.FillFunc("a", func(geom.Index) float64 { return rng.Float64() })
		p.FillFunc("b", func(geom.Index) float64 { return rng.Float64() })
		region := randomRegionIn(rng, p.Grown())
		data := PackRegion(nil, p, region, []string{"a", "b"})
		q := NewPatch(p.Box, 0, 1, "a", "b")
		UnpackRegion(q, region, []string{"a", "b"}, data)
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

func TestPackRegionEscapePanics(t *testing.T) {
	p := NewPatch(geom.UnitCube(4), 0, 0, "q")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PackRegion(nil, p, geom.UnitCube(10), []string{"q"})
}

func TestUnpackSizeMismatchPanics(t *testing.T) {
	p := NewPatch(geom.UnitCube(4), 0, 0, "q")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	UnpackRegion(p, geom.UnitCube(2), []string{"q"}, make([]float64, 3))
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
		dst1 := NewPatch(geom.UnitCube(5).Shift(geom.Index{3, 0, 0}), 0, 1, "q")
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

func TestProlongLinearReproducesLinearFields(t *testing.T) {
	// Trilinear interpolation is exact for affine data: prolong a
	// linear coarse field and compare fine interior cells away from
	// the boundary (where the full stencil exists) against the exact
	// values.
	coarse := NewPatch(geom.UnitCube(6), 0, 1, "q")
	lin := func(x, y, z float64) float64 { return 2*x - 3*y + 0.5*z + 1 }
	coarse.FillFunc("q", func(i geom.Index) float64 {
		return lin(float64(i[0])+0.5, float64(i[1])+0.5, float64(i[2])+0.5)
	})
	fine := NewPatch(geom.UnitCube(12), 1, 0, "q")
	ProlongLinear(fine, coarse, "q", 2, fine.Box)
	inner := fine.Box.Grow(-2)
	inner.ForEach(func(f geom.Index) {
		// Fine cell centre in coarse coordinates.
		want := lin((float64(f[0])+0.5)/2, (float64(f[1])+0.5)/2, (float64(f[2])+0.5)/2)
		if got := fine.At("q", f); absf(got-want) > 1e-12 {
			t.Fatalf("trilinear not exact on linear data at %v: %v vs %v", f, got, want)
		}
	})
}

func TestProlongLinearBoundaryFallback(t *testing.T) {
	// A coarse patch with no ghosts: fine cells near the edge lack a
	// full stencil and fall back to injection — values must still be
	// within the coarse data's range, never extrapolated wildly.
	coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
	coarse.FillFunc("q", func(i geom.Index) float64 { return float64(i[0]) })
	fine := NewPatch(geom.UnitCube(8), 1, 0, "q")
	ProlongLinear(fine, coarse, "q", 2, fine.Box)
	fine.Box.ForEach(func(f geom.Index) {
		v := fine.At("q", f)
		if v < 0 || v > 3 {
			t.Fatalf("boundary fallback out of range at %v: %v", f, v)
		}
	})
	// Corner cell gets pure injection of its parent.
	if got := fine.At("q", geom.Index{0, 0, 0}); got != 0 {
		t.Errorf("corner injection = %v", got)
	}
}

func TestProlongLinearBetterThanConstantOnSmoothData(t *testing.T) {
	coarse := NewPatch(geom.UnitCube(8), 0, 1, "q")
	smooth := func(x float64) float64 { return x * x }
	coarse.FillFunc("q", func(i geom.Index) float64 {
		return smooth((float64(i[0]) + 0.5) / 8)
	})
	mkFine := func() *Patch { return NewPatch(geom.UnitCube(16), 1, 0, "q") }
	fc, fl := mkFine(), mkFine()
	Prolong(fc, coarse, "q", 2, fc.Box)
	ProlongLinear(fl, coarse, "q", 2, fl.Box)
	errOf := func(p *Patch) float64 {
		var e float64
		p.Box.Grow(-2).ForEach(func(f geom.Index) {
			e += absf(p.At("q", f) - smooth((float64(f[0])+0.5)/16))
		})
		return e
	}
	if errOf(fl) >= errOf(fc) {
		t.Errorf("trilinear (%v) should beat injection (%v) on smooth data", errOf(fl), errOf(fc))
	}
}

func TestProlongLinearValidation(t *testing.T) {
	coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
	fine := NewPatch(geom.UnitCube(8), 2, 0, "q") // wrong level gap
	defer func() {
		if recover() == nil {
			t.Error("expected panic for level mismatch")
		}
	}()
	ProlongLinear(fine, coarse, "q", 2, fine.Box)
}

func TestProlongLinearEmptyRegionNoop(t *testing.T) {
	coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
	coarse.FillConstant("q", 5)
	fine := NewPatch(geom.UnitCube(8), 1, 0, "q")
	ProlongLinear(fine, coarse, "q", 2, geom.UnitCube(8).Shift(geom.Index{100, 0, 0}))
	if fine.Sum("q") != 0 {
		t.Error("disjoint region must be a no-op")
	}
}
