package grid

import (
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// The row-wise kernels in patch.go replaced per-cell closure loops.
// These tests pin them, bit for bit, against naive per-cell references
// equivalent to the originals — including boxes with negative (ghost)
// indices.

func randPatch(rng *rand.Rand, box geom.Box, level, nghost int) *Patch {
	p := NewPatch(box, level, nghost, "q")
	// FillFunc covers the grown box, ghosts included.
	p.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
	return p
}

func refCopyRegion(dst, src *Patch, name string, region geom.Box) {
	r := region.Intersect(dst.Grown()).Intersect(src.Grown())
	r.ForEach(func(i geom.Index) {
		dst.Set(name, i, src.At(name, i))
	})
}

func refProlong(fine, coarse *Patch, name string, r int, region geom.Box) {
	cg := coarse.Grown()
	region.Intersect(fine.Grown()).ForEach(func(f geom.Index) {
		c := f.FloorDiv(r)
		if !cg.Contains(c) {
			return
		}
		fine.Set(name, f, coarse.At(name, c))
	})
}

func refRestrict(coarse, fine *Patch, name string, r int) {
	overlap := coarse.Box.Intersect(fine.Box.Coarsen(r))
	inv := 1.0 / float64(r*r*r)
	r3 := float64(r * r * r)
	overlap.ForEach(func(c geom.Index) {
		fb := geom.Box{Lo: c.Scale(r), Hi: c.Scale(r).Add(geom.Index{r - 1, r - 1, r - 1})}.
			Intersect(fine.Box)
		var s float64
		fb.ForEach(func(f geom.Index) { s += fine.At(name, f) })
		coarse.Set(name, c, s*inv*r3/float64(fb.NumCells()))
	})
}

func refClamp(p *Patch, name string, region, src geom.Box) {
	region.Intersect(p.Grown()).ForEach(func(i geom.Index) {
		p.Set(name, i, p.At(name, i.Max(src.Lo).Min(src.Hi)))
	})
}

func assertSameField(t *testing.T, want, got *Patch, context string) {
	t.Helper()
	wf, gf := want.Field("q"), got.Field("q")
	for k := range wf {
		if wf[k] != gf[k] {
			t.Fatalf("%s: field differs at flat index %d: want %v, got %v", context, k, wf[k], gf[k])
		}
	}
}

func TestCopyRegionMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Boxes straddling the origin so negative indices are exercised.
	src := randPatch(rng, geom.Box{Lo: geom.Index{-4, -3, -2}, Hi: geom.Index{5, 6, 7}}, 0, 2)
	a := randPatch(rng, geom.Box{Lo: geom.Index{-1, -1, -1}, Hi: geom.Index{8, 8, 8}}, 0, 2)
	b := a.Clone()
	region := geom.Box{Lo: geom.Index{-3, -2, -1}, Hi: geom.Index{4, 5, 6}}
	CopyRegion(a, src, "q", region)
	refCopyRegion(b, src, "q", region)
	assertSameField(t, b, a, "CopyRegion")
}

func TestProlongMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, r := range []int{2, 4} {
		coarse := randPatch(rng, geom.Box{Lo: geom.Index{-2, -2, -2}, Hi: geom.Index{5, 5, 5}}, 0, 1)
		a := randPatch(rng, geom.Box{Lo: geom.Index{-3, -3, -3}, Hi: geom.Index{9, 9, 9}}, 1, 2)
		b := a.Clone()
		// Region deliberately larger than the coarse footprint so the
		// clip-vs-contains equivalence is exercised, with negative lows.
		region := a.Grown()
		Prolong(a, coarse, "q", r, region)
		refProlong(b, coarse, "q", r, region)
		assertSameField(t, b, a, "Prolong")
	}
}

func TestRestrictMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, r := range []int{2, 3} {
		fine := randPatch(rng, geom.Box{Lo: geom.Index{-2, 0, 2}, Hi: geom.Index{9, 11, 13}}, 1, 1)
		a := randPatch(rng, geom.Box{Lo: geom.Index{-3, -3, -3}, Hi: geom.Index{6, 6, 6}}, 0, 1)
		b := a.Clone()
		Restrict(a, fine, "q", r)
		refRestrict(b, fine, "q", r)
		assertSameField(t, b, a, "Restrict")
	}
}

func TestClampRegionMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	box := geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{7, 7, 7}}
	a := randPatch(rng, box, 0, 2)
	b := a.Clone()
	// Exactly the fill path's usage: clamp every grown cell outside the
	// domain back into the grid box.
	dom := geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{15, 15, 15}}
	for _, cb := range geom.Subtract(a.Grown(), dom) {
		ClampRegion(a, "q", cb, box)
		refClamp(b, "q", cb, box)
	}
	assertSameField(t, b, a, "ClampRegion")

	// An interior grid (no domain face): clamp boxes on all six sides.
	inner := geom.Box{Lo: geom.Index{4, 4, 4}, Hi: geom.Index{11, 11, 11}}
	c := randPatch(rng, inner, 0, 2)
	d := c.Clone()
	for _, cb := range geom.Subtract(c.Grown(), dom) {
		ClampRegion(c, "q", cb, inner)
		refClamp(d, "q", cb, inner)
	}
	assertSameField(t, d, c, "ClampRegion interior")
}

// randLayout returns a storage box of random extent and place holding
// a region of the given shape at a random offset, and that region.
func randLayout(rng *rand.Rand, shape geom.Index) (store, region geom.Box) {
	var lo, ext, at geom.Index
	for d := range geom.Dims {
		lo[d], ext[d] = rng.Intn(7)-3, shape[d]+rng.Intn(4)
		at[d] = lo[d] + rng.Intn(ext[d]-shape[d]+1)
	}
	return geom.BoxFromShape(lo, ext), geom.BoxFromShape(at, shape)
}

func randValues(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for k := range f {
		f[k] = rng.Float64()
	}
	return f
}

// rowShape draws a region shape whose rows are n cells long.
func rowShape(rng *rand.Rand, n int) geom.Index {
	return geom.Index{n, 1 + rng.Intn(4), 1 + rng.Intn(4)}
}

// The generic paths of CopyRows and PackRegion: one copy per x-row.
func rowCopyRows(df []float64, d Rows, sf []float64, s Rows) {
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			do, so := d.Base+y*d.SY+z*d.SZ, s.Base+y*s.SY+z*s.SZ
			copy(df[do:do+d.N], sf[so:so+d.N])
		}
	}
}

func rowPackRegion(buf []float64, p *Patch, region geom.Box, fields []string) []float64 {
	rw := RowsOf(p.Grown(), region)
	for _, name := range fields {
		f := p.Field(name)
		for z := 0; z < rw.NZ; z++ {
			for y := 0; y < rw.NY; y++ {
				o := rw.Base + y*rw.SY + z*rw.SZ
				buf = append(buf, f[o:o+rw.N]...)
			}
		}
	}
	return buf
}

// TestCopyRowsMatchesRowCopy pins CopyRows, whose one-cell rows take a
// strided element loop, against the row-copy path over random layouts
// with rows of 1, 2 and 5 cells.
func TestCopyRowsMatchesRowCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 300 {
		shape := rowShape(rng, []int{1, 2, 5}[trial%3])
		dbox, dreg := randLayout(rng, shape)
		sbox, sreg := randLayout(rng, shape)
		sf := randValues(rng, int(sbox.NumCells()))
		got := randValues(rng, int(dbox.NumCells()))
		want := slices.Clone(got)
		CopyRows(got, RowsOf(dbox, dreg), sf, RowsOf(sbox, sreg))
		rowCopyRows(want, RowsOf(dbox, dreg), sf, RowsOf(sbox, sreg))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %v in %v from %v in %v: CopyRows differs from the row copy", trial, dreg, dbox, sreg, sbox)
		}
	}
}

// TestPackRegionMatchesRowCopy does the same for PackRegion, appending
// two fields to a buffer that already holds values.
func TestPackRegionMatchesRowCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fields := []string{"q", "rho"}
	for trial := range 300 {
		shape := rowShape(rng, []int{1, 2, 5}[trial%3])
		grown, region := randLayout(rng, shape)
		ng := (min(grown.Shape()[0], grown.Shape()[1], grown.Shape()[2]) - 1) / 2
		p := NewPatch(grown.Grow(-ng), 0, ng, fields...)
		for _, f := range fields {
			copy(p.Field(f), randValues(rng, int(grown.NumCells())))
		}
		prefix := randValues(rng, rng.Intn(3))
		got := PackRegion(slices.Clone(prefix), p, region, fields)
		want := rowPackRegion(slices.Clone(prefix), p, region, fields)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: packing %v of %v differs from the row copy", trial, region, grown)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, r, want int }{
		{0, 2, 0}, {1, 2, 0}, {2, 2, 1}, {3, 2, 1},
		{-1, 2, -1}, {-2, 2, -1}, {-3, 2, -2}, {-4, 2, -2},
		{-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2}, {7, 4, 1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.r); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.r, got, c.want)
		}
	}
}
