package grid

import (
	"math"
	"math/rand"
	"testing"

	"samrdlb/internal/geom"
)

func TestNewPatchLayout(t *testing.T) {
	b := geom.UnitCube(4)
	p := NewPatch(b, 1, 2, "q", "rho")
	if p.Grown() != b.Grow(2) {
		t.Errorf("Grown = %v", p.Grown())
	}
	if got := len(p.Field("q")); got != 8*8*8 {
		t.Errorf("field size = %d, want 512", got)
	}
	names := p.FieldNames()
	if len(names) != 2 || names[0] != "q" || names[1] != "rho" {
		t.Errorf("FieldNames = %v (want sorted)", names)
	}
	if !p.HasField("q") || p.HasField("nope") {
		t.Error("HasField wrong")
	}
}

// TestFieldAtFollowsFieldNames: FieldAt(k) is the storage of the k-th
// name of FieldNames, whatever order the fields were declared in, and
// a clone agrees with its original on k.
func TestFieldAtFollowsFieldNames(t *testing.T) {
	p := NewPatch(geom.UnitCube(2), 0, 1, "rho", "q", "e")
	q := p.Clone()
	for k, name := range p.FieldNames() {
		if &p.FieldAt(k)[0] != &p.Field(name)[0] {
			t.Errorf("FieldAt(%d) is not field %q", k, name)
		}
		if &q.FieldAt(k)[0] != &q.Field(name)[0] {
			t.Errorf("clone: FieldAt(%d) is not field %q", k, name)
		}
	}
}

func TestNewPatchPanics(t *testing.T) {
	assertPanics(t, "empty box", func() {
		NewPatch(geom.Box{Lo: geom.Index{1, 0, 0}, Hi: geom.Index{0, 0, 0}}, 0, 0, "q")
	})
	assertPanics(t, "negative ghost", func() {
		NewPatch(geom.UnitCube(2), 0, -1, "q")
	})
	assertPanics(t, "duplicate field", func() {
		NewPatch(geom.UnitCube(2), 0, 0, "q", "q")
	})
	p := NewPatch(geom.UnitCube(2), 0, 0, "q")
	assertPanics(t, "unknown field", func() { p.Field("zz") })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestAtSetRoundTrip(t *testing.T) {
	p := NewPatch(geom.UnitCube(3), 0, 1, "q")
	i := geom.Index{-1, 0, 3} // a ghost cell
	p.Set("q", i, 42.5)
	if got := p.At("q", i); got != 42.5 {
		t.Errorf("At = %v", got)
	}
}

func TestFillFuncAndSum(t *testing.T) {
	p := NewPatch(geom.UnitCube(4), 0, 1, "q")
	p.FillFunc("q", func(i geom.Index) float64 {
		return float64(i[0] + i[1] + i[2])
	})
	// Sum over interior only: sum_{x,y,z in 0..3} (x+y+z) = 3 * 16 * (0+1+2+3) = 288.
	if got := p.Sum("q"); got != 288 {
		t.Errorf("Sum = %v, want 288", got)
	}
}

func TestSumExcludesGhosts(t *testing.T) {
	p := NewPatch(geom.UnitCube(2), 0, 2, "q")
	p.FillConstant("q", 1)
	if got := p.Sum("q"); got != 8 {
		t.Errorf("Sum = %v, want 8 (interior only)", got)
	}
}

func TestNorms(t *testing.T) {
	p := NewPatch(geom.UnitCube(2), 0, 0, "q")
	p.FillConstant("q", -3)
	if p.MaxAbs("q") != 3 {
		t.Errorf("MaxAbs = %v", p.MaxAbs("q"))
	}
}

// TestZeroEdges: over boxes of several shapes and ghost widths 1 and 2,
// ZeroEdges zeroes exactly the cells with two or three coordinates
// outside the box, in every field, and leaves interiors and face slabs.
func TestZeroEdges(t *testing.T) {
	for _, c := range []struct {
		lo, shape geom.Index
		ng        int
	}{
		{geom.Index{0, 0, 0}, geom.Index{1, 1, 1}, 1},
		{geom.Index{-3, 2, 5}, geom.Index{4, 2, 3}, 1},
		{geom.Index{1, 1, 1}, geom.Index{2, 5, 3}, 2},
	} {
		p := NewPatch(geom.BoxFromShape(c.lo, c.shape), 0, c.ng, "q", "rho")
		p.FillConstant("q", 1)
		p.FillConstant("rho", 2)
		p.ZeroEdges()
		p.Grown().ForEach(func(i geom.Index) {
			out := 0
			for d := range geom.Dims {
				if i[d] < p.Box.Lo[d] || i[d] > p.Box.Hi[d] {
					out++
				}
			}
			for f, v := range map[string]float64{"q": 1, "rho": 2} {
				if out >= 2 {
					v = 0
				}
				if got := p.At(f, i); got != v {
					t.Fatalf("box %v ng %d: %s at %v = %v, want %v", p.Box, c.ng, f, i, got, v)
				}
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewPatch(geom.UnitCube(2), 1, 1, "q")
	p.FillConstant("q", 7)
	q := p.Clone()
	q.Set("q", geom.Index{0, 0, 0}, 0)
	if p.At("q", geom.Index{0, 0, 0}) != 7 {
		t.Error("Clone shares storage with original")
	}
	if q.Level != p.Level || q.NGhost != p.NGhost || q.Box != p.Box {
		t.Error("Clone metadata mismatch")
	}
}

func TestCopyRegion(t *testing.T) {
	// Two adjacent patches; copy src interior into dst ghost layer.
	dst := NewPatch(geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 4, 4}), 0, 1, "q")
	src := NewPatch(geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 4, 4}), 0, 1, "q")
	src.FillConstant("q", 9)
	dst.FillConstant("q", 0)
	// dst's ghost plane at x=4 overlaps src's interior.
	region := dst.Grown().Intersect(src.Box)
	CopyRegion(dst, src, "q", region)
	if got := dst.At("q", geom.Index{4, 2, 2}); got != 9 {
		t.Errorf("ghost cell not filled: %v", got)
	}
	// dst interior untouched.
	if got := dst.At("q", geom.Index{3, 2, 2}); got != 0 {
		t.Errorf("interior overwritten: %v", got)
	}
}

func TestCopyRegionClips(t *testing.T) {
	dst := NewPatch(geom.UnitCube(2), 0, 0, "q")
	src := NewPatch(geom.BoxFromShape(geom.Index{10, 0, 0}, geom.Index{2, 2, 2}), 0, 0, "q")
	// Disjoint: must be a no-op, not a panic.
	CopyRegion(dst, src, "q", geom.UnitCube(20))
	if dst.Sum("q") != 0 {
		t.Error("disjoint copy modified dst")
	}
}

func TestCopyRegionLevelMismatchPanics(t *testing.T) {
	dst := NewPatch(geom.UnitCube(2), 0, 0, "q")
	src := NewPatch(geom.UnitCube(2), 1, 0, "q")
	assertPanics(t, "level mismatch", func() {
		CopyRegion(dst, src, "q", geom.UnitCube(2))
	})
}

func TestRestrictAverages(t *testing.T) {
	r := 2
	coarse := NewPatch(geom.UnitCube(2), 0, 0, "q")
	fine := NewPatch(geom.UnitCube(4), 1, 0, "q")
	// Fine field = linear in x: restriction of each 2x2x2 block is the
	// block average.
	fine.FillFunc("q", func(i geom.Index) float64 { return float64(i[0]) })
	Restrict(coarse, fine, "q", r)
	// Coarse cell (0,*,*) covers fine x in {0,1} -> avg 0.5.
	if got := coarse.At("q", geom.Index{0, 0, 0}); math.Abs(got-0.5) > 1e-14 {
		t.Errorf("restrict avg = %v, want 0.5", got)
	}
	if got := coarse.At("q", geom.Index{1, 1, 1}); math.Abs(got-2.5) > 1e-14 {
		t.Errorf("restrict avg = %v, want 2.5", got)
	}
}

func TestRestrictConservesTotal(t *testing.T) {
	r := 2
	rng := rand.New(rand.NewSource(7))
	coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
	fine := NewPatch(geom.UnitCube(8), 1, 0, "q")
	fine.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
	Restrict(coarse, fine, "q", r)
	// Total coarse mass * r^3 must equal total fine mass (cell volumes
	// differ by r^3).
	cMass := coarse.Sum("q") * float64(r*r*r)
	fMass := fine.Sum("q")
	if math.Abs(cMass-fMass) > 1e-10*math.Abs(fMass) {
		t.Errorf("restriction lost mass: coarse %v fine %v", cMass, fMass)
	}
}

func TestRestrictPartialOverlap(t *testing.T) {
	coarse := NewPatch(geom.UnitCube(4), 0, 0, "q")
	fine := NewPatch(geom.BoxFromShape(geom.Index{2, 2, 2}, geom.Index{4, 4, 4}), 1, 0, "q")
	fine.FillConstant("q", 5)
	coarse.FillConstant("q", 1)
	Restrict(coarse, fine, "q", 2)
	// Covered coarse cells (1..2)^3 become 5; others stay 1.
	if got := coarse.At("q", geom.Index{1, 1, 1}); got != 5 {
		t.Errorf("covered cell = %v", got)
	}
	if got := coarse.At("q", geom.Index{0, 0, 0}); got != 1 {
		t.Errorf("uncovered cell = %v", got)
	}
}

func TestProlongInjection(t *testing.T) {
	coarse := NewPatch(geom.UnitCube(2), 0, 0, "q")
	coarse.FillFunc("q", func(i geom.Index) float64 { return float64(i[0]*100 + i[1]*10 + i[2]) })
	fine := NewPatch(geom.UnitCube(4), 1, 0, "q")
	Prolong(fine, coarse, "q", 2, fine.Box)
	// Fine cell (3,3,3) maps to coarse (1,1,1) -> 111.
	if got := fine.At("q", geom.Index{3, 3, 3}); got != 111 {
		t.Errorf("prolong = %v, want 111", got)
	}
	if got := fine.At("q", geom.Index{0, 1, 2}); got != 1 {
		t.Errorf("prolong = %v, want 1 (coarse (0,0,1))", got)
	}
}

func TestProlongThenRestrictIsIdentity(t *testing.T) {
	// Piecewise-constant prolongation followed by averaging restriction
	// must reproduce the coarse data exactly.
	rng := rand.New(rand.NewSource(8))
	coarse := NewPatch(geom.UnitCube(3), 0, 0, "q")
	coarse.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
	orig := coarse.Clone()
	fine := NewPatch(geom.UnitCube(6), 1, 0, "q")
	Prolong(fine, coarse, "q", 2, fine.Box)
	coarse.FillConstant("q", 0)
	Restrict(coarse, fine, "q", 2)
	coarse.Box.ForEach(func(i geom.Index) {
		if math.Abs(coarse.At("q", i)-orig.At("q", i)) > 1e-14 {
			t.Fatalf("restrict∘prolong != id at %v", i)
		}
	})
}

func TestProlongFillsGhostRegion(t *testing.T) {
	coarse := NewPatch(geom.UnitCube(4), 0, 1, "q")
	coarse.FillConstant("q", 2)
	fine := NewPatch(geom.BoxFromShape(geom.Index{2, 2, 2}, geom.Index{4, 4, 4}), 1, 1, "q")
	// Fill the whole grown fine box from the coarse patch.
	Prolong(fine, coarse, "q", 2, fine.Grown())
	if got := fine.At("q", geom.Index{1, 2, 2}); got != 2 {
		t.Errorf("fine ghost = %v, want 2", got)
	}
}
