package cluster

import (
	"math/rand"
	"testing"

	"samrdlb/internal/geom"
)

func coverAll(t *testing.T, f *FlagField, boxes geom.BoxList) {
	t.Helper()
	f.Box.ForEach(func(i geom.Index) {
		if f.Get(i) && !boxes.Contains(i) {
			t.Fatalf("flagged cell %v not covered", i)
		}
	})
}

func TestFlagFieldBasics(t *testing.T) {
	f := NewFlagField(geom.UnitCube(4))
	if f.Count() != 0 {
		t.Fatal("fresh field should be clear")
	}
	i := geom.Index{1, 2, 3}
	f.Set(i)
	f.Set(i) // idempotent
	if !f.Get(i) || f.Count() != 1 {
		t.Error("Set/Get/Count wrong")
	}
	// Out-of-box accesses are safe no-ops.
	f.Set(geom.Index{100, 0, 0})
	if f.Count() != 1 || f.Get(geom.Index{100, 0, 0}) {
		t.Error("out-of-box Set must be ignored")
	}
}

func TestSetWhere(t *testing.T) {
	f := NewFlagField(geom.UnitCube(4))
	n := f.SetWhere(func(i geom.Index) bool { return i[0] == 0 })
	if n != 16 || f.Count() != 16 {
		t.Errorf("SetWhere added %d, count %d", n, f.Count())
	}
	// Second call adds nothing.
	if n := f.SetWhere(func(i geom.Index) bool { return i[0] == 0 }); n != 0 {
		t.Errorf("repeated SetWhere added %d", n)
	}
}

func TestBoundingBox(t *testing.T) {
	f := NewFlagField(geom.UnitCube(8))
	f.Set(geom.Index{2, 3, 4})
	f.Set(geom.Index{5, 3, 1})
	bb := f.BoundingBox(f.Box)
	if bb.Lo != (geom.Index{2, 3, 1}) || bb.Hi != (geom.Index{5, 3, 4}) {
		t.Errorf("BoundingBox = %v", bb)
	}
	empty := NewFlagField(geom.UnitCube(4))
	if !empty.BoundingBox(empty.Box).Empty() {
		t.Error("bounding box of no flags must be empty")
	}
}

func TestCountIn(t *testing.T) {
	f := NewFlagField(geom.UnitCube(4))
	f.SetWhere(func(i geom.Index) bool { return true })
	if got := f.CountIn(geom.UnitCube(2)); got != 8 {
		t.Errorf("CountIn = %d", got)
	}
	if got := f.CountIn(geom.BoxFromShape(geom.Index{10, 0, 0}, geom.Index{4, 4, 4})); got != 0 {
		t.Errorf("CountIn outside = %d", got)
	}
}

func TestClusterEmpty(t *testing.T) {
	f := NewFlagField(geom.UnitCube(8))
	if boxes := Cluster(f, DefaultParams()); boxes != nil {
		t.Errorf("clustering no flags should return nil, got %v", boxes)
	}
}

func TestClusterSingleBlob(t *testing.T) {
	f := NewFlagField(geom.UnitCube(16))
	blob := geom.BoxFromShape(geom.Index{3, 4, 5}, geom.Index{4, 4, 4})
	blob.ForEach(f.Set)
	boxes := Cluster(f, DefaultParams())
	if len(boxes) != 1 {
		t.Fatalf("dense blob should be one box, got %v", boxes)
	}
	if boxes[0] != blob {
		t.Errorf("box should shrink-wrap blob: got %v want %v", boxes[0], blob)
	}
	if Efficiency(f, boxes) != 1.0 {
		t.Errorf("efficiency = %v", Efficiency(f, boxes))
	}
}

func TestClusterTwoSeparatedBlobs(t *testing.T) {
	f := NewFlagField(geom.UnitCube(24))
	b1 := geom.BoxFromShape(geom.Index{1, 1, 1}, geom.Index{4, 4, 4})
	b2 := geom.BoxFromShape(geom.Index{16, 16, 16}, geom.Index{5, 5, 5})
	b1.ForEach(f.Set)
	b2.ForEach(f.Set)
	boxes := Cluster(f, DefaultParams())
	if len(boxes) != 2 {
		t.Fatalf("two blobs should give two boxes (hole cut), got %d: %v", len(boxes), boxes)
	}
	coverAll(t, f, boxes)
	if e := Efficiency(f, boxes); e < 0.99 {
		t.Errorf("two clean blobs should cluster at efficiency ~1, got %v", e)
	}
}

func TestClusterLShape(t *testing.T) {
	// An L-shaped flag region cannot be one efficient box; the
	// inflection cut should find the corner.
	f := NewFlagField(geom.UnitCube(16))
	geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{12, 4, 4}).ForEach(f.Set)
	geom.BoxFromShape(geom.Index{0, 4, 0}, geom.Index{4, 8, 4}).ForEach(f.Set)
	p := DefaultParams()
	boxes := Cluster(f, p)
	coverAll(t, f, boxes)
	if !disjoint(boxes) {
		t.Error("boxes must be disjoint")
	}
	if e := Efficiency(f, boxes); e < p.MinEfficiency {
		t.Errorf("overall efficiency %v below threshold %v; boxes %v", e, p.MinEfficiency, boxes)
	}
}

func TestClusterRespectsMaxSize(t *testing.T) {
	f := NewFlagField(geom.UnitCube(64))
	geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{64, 4, 4}).ForEach(f.Set)
	p := DefaultParams()
	p.MaxSize = 16
	boxes := Cluster(f, p)
	coverAll(t, f, boxes)
	for _, b := range boxes {
		s := b.Shape()
		if s[0] > p.MaxSize || s[1] > p.MaxSize || s[2] > p.MaxSize {
			t.Errorf("box %v exceeds MaxSize %d", b, p.MaxSize)
		}
	}
}

func TestClusterEfficiencyProperty(t *testing.T) {
	// Property: for random sparse flags, every produced box either
	// meets the efficiency threshold or is at/below MinSize; all boxes
	// disjoint, within the domain, and all flags covered.
	rng := rand.New(rand.NewSource(42))
	p := DefaultParams()
	for trial := 0; trial < 25; trial++ {
		f := NewFlagField(geom.UnitCube(20))
		nblobs := 1 + rng.Intn(5)
		for b := 0; b < nblobs; b++ {
			c := geom.Index{rng.Intn(20), rng.Intn(20), rng.Intn(20)}
			r := 1 + rng.Intn(3)
			geom.Box{Lo: c.Sub(geom.Index{r, r, r}), Hi: c.Add(geom.Index{r, r, r})}.
				Intersect(f.Box).ForEach(f.Set)
		}
		boxes := Cluster(f, p)
		coverAll(t, f, boxes)
		if !disjoint(boxes) {
			t.Fatalf("trial %d: boxes overlap: %v", trial, boxes)
		}
		for _, b := range boxes {
			if !f.Box.ContainsBox(b) {
				t.Fatalf("trial %d: box %v escapes domain", trial, b)
			}
			if f.CountIn(b) == 0 {
				t.Fatalf("trial %d: box %v contains no flags", trial, b)
			}
			eff := float64(f.CountIn(b)) / float64(b.NumCells())
			s := b.Shape()
			small := s[0] <= p.MinSize && s[1] <= p.MinSize && s[2] <= p.MinSize
			if eff < p.MinEfficiency && !small {
				// findCut may legitimately fail to improve an awkward
				// region; accept but require it not to be egregious.
				if eff < p.MinEfficiency/2 {
					t.Fatalf("trial %d: box %v efficiency %v far below threshold", trial, b, eff)
				}
			}
		}
	}
}

func TestClusterScatteredPoints(t *testing.T) {
	// Isolated points must each end up in small boxes, not one huge
	// inefficient box.
	f := NewFlagField(geom.UnitCube(32))
	pts := []geom.Index{{2, 2, 2}, {29, 3, 4}, {5, 28, 27}, {30, 30, 30}}
	for _, p := range pts {
		f.Set(p)
	}
	boxes := Cluster(f, DefaultParams())
	coverAll(t, f, boxes)
	if len(boxes) != len(pts) {
		t.Errorf("expected %d boxes for isolated points, got %d: %v", len(pts), len(boxes), boxes)
	}
	for _, b := range boxes {
		if b.NumCells() > 8 {
			t.Errorf("isolated point box too large: %v", b)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	build := func() geom.BoxList {
		f := NewFlagField(geom.UnitCube(16))
		rng := rand.New(rand.NewSource(9))
		for k := 0; k < 80; k++ {
			f.Set(geom.Index{rng.Intn(16), rng.Intn(16), rng.Intn(16)})
		}
		return Cluster(f, DefaultParams())
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic box count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic box %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Efficiency returns the overall fill efficiency of the boxes against
// the flag field: flagged cells / total box cells.
func Efficiency(f *FlagField, boxes geom.BoxList) float64 {
	if boxes.NumCells() == 0 {
		return 0
	}
	flagged := 0
	for _, b := range boxes {
		flagged += f.CountIn(b)
	}
	return float64(flagged) / float64(boxes.NumCells())
}

func TestEfficiencyNoBoxes(t *testing.T) {
	f := NewFlagField(geom.UnitCube(4))
	if Efficiency(f, nil) != 0 {
		t.Error("efficiency of no boxes must be 0")
	}
}

func TestNewFlagFieldEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty box")
		}
	}()
	NewFlagField(geom.Box{Lo: geom.Index{1, 0, 0}, Hi: geom.Index{0, 0, 0}})
}
