package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randBox produces a modest random box (possibly empty) for property
// tests.
func randBox(r *rand.Rand) Box {
	var lo, hi Index
	for d := 0; d < Dims; d++ {
		lo[d] = r.Intn(41) - 20
		hi[d] = lo[d] + r.Intn(25) - 4 // sometimes empty
	}
	return Box{Lo: lo, Hi: hi}
}

func randNonEmptyBox(r *rand.Rand) Box {
	var lo, hi Index
	for d := 0; d < Dims; d++ {
		lo[d] = r.Intn(41) - 20
		hi[d] = lo[d] + r.Intn(20)
	}
	return Box{Lo: lo, Hi: hi}
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(seed)),
		Values:   nil,
	}
}

func TestIndexArithmetic(t *testing.T) {
	a := Index{1, -2, 3}
	b := Index{4, 5, -6}
	if got := a.Add(b); got != (Index{5, 3, -3}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Index{-3, -7, 9}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Index{2, -4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Min(b); got != (Index{1, -2, -6}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != (Index{4, 5, 3}) {
		t.Errorf("Max = %v", got)
	}
	if a.Product() != 1*-2*3 {
		t.Errorf("Product = %d", a.Product())
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct {
		in   Index
		r    int
		want Index
	}{
		{Index{4, 5, 6}, 2, Index{2, 2, 3}},
		{Index{-1, -2, -3}, 2, Index{-1, -1, -2}},
		{Index{-4, 0, 7}, 4, Index{-1, 0, 1}},
		{Index{-5, -4, -3}, 4, Index{-2, -1, -1}},
	}
	for _, c := range cases {
		if got := c.in.FloorDiv(c.r); got != c.want {
			t.Errorf("FloorDiv(%v, %d) = %v, want %v", c.in, c.r, got, c.want)
		}
	}
}

func TestMaxDim(t *testing.T) {
	if d := (Index{3, 7, 7}).MaxDim(); d != 1 {
		t.Errorf("MaxDim tie should pick lowest dim: got %d", d)
	}
	if d := (Index{3, 1, 9}).MaxDim(); d != 2 {
		t.Errorf("MaxDim = %d", d)
	}
}

func TestBoxBasics(t *testing.T) {
	b := Box{Lo: Index{0, 0, 0}, Hi: Index{3, 4, 5}}
	if b.Empty() {
		t.Fatal("box should not be empty")
	}
	if got := b.Shape(); got != (Index{4, 5, 6}) {
		t.Errorf("Shape = %v", got)
	}
	if got := b.NumCells(); got != 120 {
		t.Errorf("NumCells = %d", got)
	}
	if !b.Contains(Index{3, 4, 5}) || !b.Contains(Index{0, 0, 0}) {
		t.Error("corner cells must be contained (inclusive box)")
	}
	if b.Contains(Index{4, 0, 0}) {
		t.Error("cell beyond Hi must not be contained")
	}
	empty := Box{Lo: Index{1, 1, 1}, Hi: Index{0, 5, 5}}
	if !empty.Empty() || empty.NumCells() != 0 {
		t.Error("box with Hi<Lo must be empty with 0 cells")
	}
}

func TestBoxFromShape(t *testing.T) {
	b := BoxFromShape(Index{2, 3, 4}, Index{5, 1, 2})
	if b.Shape() != (Index{5, 1, 2}) {
		t.Errorf("Shape = %v", b.Shape())
	}
	if b.Lo != (Index{2, 3, 4}) || b.Hi != (Index{6, 3, 5}) {
		t.Errorf("bad corners: %v", b)
	}
}

func TestUnitCube(t *testing.T) {
	b := UnitCube(8)
	if b.NumCells() != 512 {
		t.Errorf("NumCells = %d", b.NumCells())
	}
}

func TestIntersectCommutativeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randBox(r), randBox(r)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab.Empty() != ba.Empty() {
			t.Fatalf("emptiness not commutative: %v %v", a, b)
		}
		if !ab.Empty() && ab != ba {
			t.Fatalf("intersect not commutative: %v %v", a, b)
		}
		if !ab.Empty() && ab.Intersect(ab) != ab {
			t.Fatalf("intersect not idempotent: %v", ab)
		}
		if got := a.Intersect(a); !a.Empty() && got != a {
			t.Fatalf("a∩a != a for %v", a)
		}
	}
}

func TestIntersectionIsContained(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz uint8) bool {
		a := BoxFromShape(Index{int(ax) % 10, int(ay) % 10, int(az) % 10}, Index{1 + int(bx)%8, 1 + int(by)%8, 1 + int(bz)%8})
		b := BoxFromShape(Index{int(bx) % 10, int(bz) % 10, int(ay) % 10}, Index{1 + int(ax)%8, 1 + int(az)%8, 1 + int(by)%8})
		iv := a.Intersect(b)
		if iv.Empty() {
			return true
		}
		return a.ContainsBox(iv) && b.ContainsBox(iv)
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Error(err)
	}
}

func TestRefineCoarsenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		b := randNonEmptyBox(r)
		for _, rf := range []int{2, 3, 4} {
			// Coarsen∘Refine must be identity.
			if got := b.Refine(rf).Coarsen(rf); got != b {
				t.Fatalf("coarsen(refine(%v,%d)) = %v", b, rf, got)
			}
			// Refine∘Coarsen must cover the original box.
			if got := b.Coarsen(rf).Refine(rf); !got.ContainsBox(b) {
				t.Fatalf("refine(coarsen(%v,%d)) = %v does not cover original", b, rf, got)
			}
			// Cell counts scale exactly under refinement.
			if b.Refine(rf).NumCells() != b.NumCells()*int64(rf*rf*rf) {
				t.Fatalf("refine cell count wrong for %v r=%d", b, rf)
			}
		}
	}
}

func TestRefineCoarsenNegativeIndices(t *testing.T) {
	b := Box{Lo: Index{-4, -3, -2}, Hi: Index{-1, 2, 5}}
	c := b.Coarsen(2)
	if c.Lo != (Index{-2, -2, -1}) {
		t.Errorf("Coarsen Lo = %v", c.Lo)
	}
	if c.Hi != (Index{-1, 1, 2}) {
		t.Errorf("Coarsen Hi = %v", c.Hi)
	}
	if !c.Refine(2).ContainsBox(b) {
		t.Error("refined coarse box must cover original")
	}
}

func TestGrowShrinkInverse(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		b := randNonEmptyBox(r)
		n := r.Intn(4)
		if got := b.Grow(n).Grow(-n); got != b {
			t.Fatalf("grow(%d) then shrink != id for %v", n, b)
		}
		if b.Grow(n).NumCells() < b.NumCells() {
			t.Fatalf("grow shrank the box %v", b)
		}
	}
}

func TestGrowDim(t *testing.T) {
	b := UnitCube(4)
	g := b.GrowDim(1, 2, 3)
	if g.Lo != (Index{0, -2, 0}) || g.Hi != (Index{3, 6, 3}) {
		t.Errorf("GrowDim = %v", g)
	}
	// Other dims untouched.
	if g.Lo[0] != 0 || g.Hi[2] != 3 {
		t.Errorf("GrowDim changed other dims: %v", g)
	}
}

func TestSplitPreservesCells(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		b := randNonEmptyBox(r)
		d := b.Shape().MaxDim()
		if b.Shape()[d] < 2 {
			continue
		}
		at := b.Lo[d] + 1 + r.Intn(b.Shape()[d]-1)
		lo, hi := b.SplitAt(d, at)
		if lo.NumCells()+hi.NumCells() != b.NumCells() {
			t.Fatalf("split lost cells: %v -> %v %v", b, lo, hi)
		}
		if lo.Intersects(hi) {
			t.Fatalf("split halves overlap: %v %v", lo, hi)
		}
		if lo.Union(hi) != b {
			t.Fatalf("split halves do not tile the box: %v %v vs %v", lo, hi, b)
		}
	}
}

func TestHalve(t *testing.T) {
	b := Box{Lo: Index{0, 0, 0}, Hi: Index{9, 3, 3}}
	lo, hi := b.Halve()
	if lo.Shape()[0] != 5 || hi.Shape()[0] != 5 {
		t.Errorf("Halve should cut longest dim evenly: %v %v", lo, hi)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	b := Box{Lo: Index{-2, 3, 1}, Hi: Index{4, 7, 5}}
	n := int(b.NumCells())
	seen := make([]bool, n)
	b.ForEach(func(i Index) {
		off := b.Offset(i)
		if off < 0 || off >= n {
			t.Fatalf("offset out of range: %v -> %d", i, off)
		}
		if seen[off] {
			t.Fatalf("offset collision at %v", i)
		}
		seen[off] = true
		if b.IndexAt(off) != i {
			t.Fatalf("IndexAt(Offset(%v)) = %v", i, b.IndexAt(off))
		}
	})
	for _, s := range seen {
		if !s {
			t.Fatal("ForEach missed an offset")
		}
	}
}

func TestForEachIsOffsetOrdered(t *testing.T) {
	b := Box{Lo: Index{0, 0, 0}, Hi: Index{2, 2, 2}}
	want := 0
	b.ForEach(func(i Index) {
		if b.Offset(i) != want {
			t.Fatalf("ForEach out of order at %v: offset %d want %d", i, b.Offset(i), want)
		}
		want++
	})
}

func TestUnionBounding(t *testing.T) {
	a := Box{Lo: Index{0, 0, 0}, Hi: Index{1, 1, 1}}
	b := Box{Lo: Index{5, 5, 5}, Hi: Index{6, 6, 6}}
	u := a.Union(b)
	if !u.ContainsBox(a) || !u.ContainsBox(b) {
		t.Error("union must contain both operands")
	}
	var empty Box
	empty.Hi = Index{-1, -1, -1}
	if a.Union(empty) != a || empty.Union(a) != a {
		t.Error("union with empty must be identity")
	}
}

func TestContainsBoxEmpty(t *testing.T) {
	a := UnitCube(2)
	empty := Box{Lo: Index{5, 5, 5}, Hi: Index{4, 4, 4}}
	if !a.ContainsBox(empty) {
		t.Error("every box contains the empty box")
	}
}
