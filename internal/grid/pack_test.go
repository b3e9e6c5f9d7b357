package grid

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"samrdlb/internal/geom"
)

// refPackRegion and refUnpackRegion are the per-cell closures the
// row-wise pack pair replaced, kept as the element-order reference:
// field-major, then Box.ForEach order within the region.
func refPackRegion(p *Patch, region geom.Box, fields []string) []float64 {
	g := p.Grown()
	var out []float64
	for _, name := range fields {
		f := p.Field(name)
		region.ForEach(func(i geom.Index) {
			out = append(out, f[g.Offset(i)])
		})
	}
	return out
}

func refUnpackRegion(p *Patch, region geom.Box, fields []string, data []float64) {
	g := p.Grown()
	k := 0
	for _, name := range fields {
		f := p.Field(name)
		region.ForEach(func(i geom.Index) {
			f[g.Offset(i)] = data[k]
			k++
		})
	}
}

var packFieldNames = []string{"a", "b", "c"}

// randomPackPatch draws a patch with a negative-index box, ghost width
// 0–2 and 1–3 random-valued fields.
func randomPackPatch(rng *rand.Rand, level int) (*Patch, []string) {
	lo := geom.Index{rng.Intn(9) - 6, rng.Intn(9) - 6, rng.Intn(9) - 6}
	shape := geom.Index{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
	fields := packFieldNames[:1+rng.Intn(3)]
	p := NewPatch(geom.BoxFromShape(lo, shape), level, rng.Intn(3), fields...)
	for _, f := range fields {
		p.FillFunc(f, func(geom.Index) float64 { return rng.NormFloat64() })
	}
	return p, fields
}

// randomPackRegion draws a sub-box of b that, one time in three each,
// touches b's boundary on every side or is one cell wide in x.
func randomPackRegion(rng *rand.Rand, b geom.Box) geom.Box {
	region := randomRegionIn(rng, b)
	switch rng.Intn(3) {
	case 0:
		d := rng.Intn(3)
		region.Lo[d], region.Hi[d] = b.Lo[d], b.Hi[d]
	case 1:
		region.Hi[0] = region.Lo[0]
	}
	return region
}

func samePatchData(a, b *Patch) error {
	for _, name := range a.FieldNames() {
		fa, fb := a.Field(name), b.Field(name)
		for k := range fa {
			if fa[k] != fb[k] {
				return fmt.Errorf("field %q differs at flat index %d: %v vs %v", name, k, fa[k], fb[k])
			}
		}
	}
	return nil
}

// TestPackRowWiseMatchesPerCellProperty pins the row-wise pack pair,
// element for element, to the per-cell closures it replaced, and the
// append contract: whatever the buffer already held stays in front.
func TestPackRowWiseMatchesPerCellProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, fields := randomPackPatch(rng, 0)
		region := randomPackRegion(rng, p.Grown())

		want := refPackRegion(p, region, fields)
		prefix := []float64{-1, -2, -3}[:rng.Intn(4)]
		got := PackRegion(append([]float64(nil), prefix...), p, region, fields)
		if len(got) != len(prefix)+len(want) {
			t.Logf("seed %d: packed %d values after a %d prefix, want %d", seed, len(got), len(prefix), len(want))
			return false
		}
		for k, v := range prefix {
			if got[k] != v {
				t.Logf("seed %d: prefix value %d overwritten", seed, k)
				return false
			}
		}
		for k, v := range want {
			if got[len(prefix)+k] != v {
				t.Logf("seed %d: region %v in %v: value %d = %v, per-cell order has %v",
					seed, region, p.Grown(), k, got[len(prefix)+k], v)
				return false
			}
		}

		a := NewPatch(p.Box, 0, p.NGhost, fields...)
		b := a.Clone()
		UnpackRegion(a, region, fields, want)
		refUnpackRegion(b, region, fields, want)
		if err := samePatchData(a, b); err != nil {
			t.Logf("seed %d: unpack of region %v: %v", seed, region, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(21)); err != nil {
		t.Error(err)
	}
}

// TestRawStorageOperatorsMatchPatchFormsProperty checks the twins a
// received message is applied with: prolonging or copying from a
// packed slice equals doing so from the temporary patch the slice
// would have been unpacked into, and restricting into a slice equals
// packing a temporary patch that was restricted into.
func TestRawStorageOperatorsMatchPatchFormsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, r := range []int{2, 3} {
			src, fields := randomPackPatch(rng, 0)
			cbox := randomPackRegion(rng, src.Grown())
			packed := PackRegion(nil, src, cbox, fields)
			nc := int(cbox.NumCells())
			tmp := NewPatch(cbox, 0, 0, fields...)
			UnpackRegion(tmp, cbox, fields, packed)

			// Prolong: a fine patch overlapping the refined region, the
			// region spilling over both.
			fbox := randomRegionIn(rng, cbox.Refine(r).Grow(2))
			a := NewPatch(fbox, 1, rng.Intn(3), fields...)
			b := a.Clone()
			region := randomPackRegion(rng, a.Grown().Grow(1))
			for k, name := range fields {
				ProlongFrom(a, packed[k*nc:(k+1)*nc], cbox, name, r, region)
				Prolong(b, tmp, name, r, region)
			}
			if err := samePatchData(a, b); err != nil {
				t.Logf("seed %d r=%d: ProlongFrom over %v from %v: %v", seed, r, region, cbox, err)
				return false
			}

			// Copy: a same-level patch overlapping the source box.
			c := NewPatch(randomRegionIn(rng, cbox.Grow(2)), 0, rng.Intn(3), fields...)
			d := c.Clone()
			region = randomPackRegion(rng, c.Grown().Grow(1))
			for k, name := range fields {
				CopyRegionFrom(c, packed[k*nc:(k+1)*nc], cbox, name, region)
				CopyRegion(d, tmp, name, region)
			}
			if err := samePatchData(c, d); err != nil {
				t.Logf("seed %d: CopyRegionFrom over %v from %v: %v", seed, region, cbox, err)
				return false
			}

			// Restrict: the fine patch's coarsened box as the storage,
			// fine boxes not aligned to r included.
			fine, ffields := randomPackPatch(rng, 1)
			coarse := fine.Box.Coarsen(r)
			rtmp := NewPatch(coarse, 0, 0, ffields...)
			var got []float64
			for _, name := range ffields {
				Restrict(rtmp, fine, name, r)
				k := len(got)
				got = append(got, make([]float64, coarse.NumCells())...)
				RestrictInto(got[k:], coarse, coarse, fine, name, r)
			}
			want := PackRegion(nil, rtmp, coarse, ffields)
			for k := range want {
				if got[k] != want[k] {
					t.Logf("seed %d r=%d: RestrictInto of %v value %d = %v, want %v", seed, r, fine.Box, k, got[k], want[k])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(22)); err != nil {
		t.Error(err)
	}
}

// TestRawStorageLengthPanics: a slice that is not exactly its box's
// storage is a mis-cut message and must not be read.
func TestRawStorageLengthPanics(t *testing.T) {
	box := geom.UnitCube(2)
	fine := NewPatch(geom.UnitCube(4), 1, 1, "q")
	same := NewPatch(geom.UnitCube(4), 0, 1, "q")
	for name, fn := range map[string]func(){
		"ProlongFrom":    func() { ProlongFrom(fine, make([]float64, 7), box, "q", 2, fine.Box) },
		"CopyRegionFrom": func() { CopyRegionFrom(same, make([]float64, 9), box, "q", box) },
		"RestrictInto":   func() { RestrictInto(make([]float64, 7), box, box, fine, "q", 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a slice of the wrong length", name)
				}
			}()
			fn()
		}()
	}
}
