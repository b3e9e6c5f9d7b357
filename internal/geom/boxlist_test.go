package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// disjoint reports whether no two boxes in the list overlap, by
// comparing every pair.
func disjoint(l BoxList) bool {
	for i := range l {
		for j := i + 1; j < len(l); j++ {
			if l[i].Intersects(l[j]) {
				return false
			}
		}
	}
	return true
}

func TestSubtractDisjointTiles(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		a, b := randNonEmptyBox(r), randNonEmptyBox(r)
		parts := Subtract(a, b)
		if !disjoint(parts) {
			t.Fatalf("Subtract produced overlapping parts: %v \\ %v = %v", a, b, parts)
		}
		// parts + a∩b must tile a exactly.
		total := parts.NumCells() + a.Intersect(b).NumCells()
		if total != a.NumCells() {
			t.Fatalf("Subtract cell accounting wrong: %v \\ %v: %d + overlap != %d",
				a, b, parts.NumCells(), a.NumCells())
		}
		for _, p := range parts {
			if !a.ContainsBox(p) {
				t.Fatalf("part %v escapes %v", p, a)
			}
			if p.Intersects(b) {
				t.Fatalf("part %v still overlaps %v", p, b)
			}
		}
	}
}

func TestSubtractSelf(t *testing.T) {
	a := UnitCube(4)
	if parts := Subtract(a, a); len(parts) != 0 {
		t.Errorf("a \\ a should be empty, got %v", parts)
	}
}

func TestSubtractDisjointOperands(t *testing.T) {
	a := UnitCube(4)
	b := BoxFromShape(Index{10, 0, 0}, a.Shape())
	parts := Subtract(a, b)
	if len(parts) != 1 || parts[0] != a {
		t.Errorf("a \\ disjoint should be {a}, got %v", parts)
	}
}

func TestSubtractCenterHole(t *testing.T) {
	a := UnitCube(6)
	hole := Box{Lo: Index{2, 2, 2}, Hi: Index{3, 3, 3}}
	parts := Subtract(a, hole)
	if parts.NumCells() != a.NumCells()-hole.NumCells() {
		t.Errorf("cell count wrong: %d", parts.NumCells())
	}
	if len(parts) != 6 {
		t.Errorf("center hole should give 6 slabs, got %d", len(parts))
	}
}

func TestSubtractList(t *testing.T) {
	a := UnitCube(8)
	covers := BoxList{
		Box{Lo: Index{0, 0, 0}, Hi: Index{7, 7, 3}},
		Box{Lo: Index{0, 0, 4}, Hi: Index{7, 7, 7}},
	}
	if rest := SubtractList(a, covers); len(rest) != 0 {
		t.Errorf("fully covered box should leave nothing, got %v", rest)
	}
	partial := BoxList{Box{Lo: Index{0, 0, 0}, Hi: Index{7, 7, 3}}}
	rest := SubtractList(a, partial)
	if rest.NumCells() != 8*8*4 {
		t.Errorf("remaining cells = %d, want %d", rest.NumCells(), 8*8*4)
	}
}

func TestContainsBoxList(t *testing.T) {
	l := BoxList{
		Box{Lo: Index{0, 0, 0}, Hi: Index{3, 7, 7}},
		Box{Lo: Index{4, 0, 0}, Hi: Index{7, 7, 7}},
	}
	if !l.ContainsBox(UnitCube(8)) {
		t.Error("two slabs must cover the cube")
	}
	if l.ContainsBox(UnitCube(9)) {
		t.Error("slabs must not cover the larger cube")
	}
	if !l.Contains(Index{5, 5, 5}) || l.Contains(Index{8, 0, 0}) {
		t.Error("point containment wrong")
	}
}

func TestBoundingAndNumCells(t *testing.T) {
	l := BoxList{UnitCube(2), BoxFromShape(Index{4, 4, 4}, Index{2, 2, 2})}
	bb := l.Bounding()
	if bb.Lo != (Index{0, 0, 0}) || bb.Hi != (Index{5, 5, 5}) {
		t.Errorf("Bounding = %v", bb)
	}
	if l.NumCells() != 16 {
		t.Errorf("NumCells = %d", l.NumCells())
	}
	if (BoxList{}).Bounding().NumCells() != 0 {
		t.Error("empty list bounding must be empty")
	}
}

func TestSplitEvenly(t *testing.T) {
	l := BoxList{UnitCube(8)}
	out := l.SplitEvenly(7)
	if len(out) < 7 {
		t.Fatalf("SplitEvenly produced %d boxes, want >= 7", len(out))
	}
	if out.NumCells() != 512 {
		t.Errorf("SplitEvenly changed total cells: %d", out.NumCells())
	}
	if !disjoint(out) {
		t.Error("SplitEvenly parts must be disjoint")
	}
	// Largest/smallest ratio should be modest for a power-of-two cube.
	var lo, hi int64 = 1 << 62, 0
	for _, b := range out {
		c := b.NumCells()
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi > 4*lo {
		t.Errorf("SplitEvenly very uneven: min %d max %d", lo, hi)
	}
}

func TestSplitEvenlySingleCells(t *testing.T) {
	l := BoxList{UnitCube(1)}
	out := l.SplitEvenly(5)
	if len(out) != 1 {
		t.Errorf("single cell cannot be split, got %d boxes", len(out))
	}
}

// splitEvenlyScan is SplitEvenly as it was before the heap: an O(n)
// scan for the first largest splittable box per split. It is the
// reference the heap must reproduce box for box.
func splitEvenlyScan(l BoxList, n int) BoxList {
	out := append(BoxList{}, l...)
	for len(out) < n {
		bi, bc := -1, int64(1)
		for i, b := range out {
			if c := b.NumCells(); c > bc {
				bi, bc = i, c
			}
		}
		if bi < 0 {
			break // everything is single-cell
		}
		lo, hi := out[bi].Halve()
		out[bi] = lo
		out = append(out, hi)
	}
	return out
}

// TestSplitEvenlyMatchesScan pins the split order: every list the heap
// produces equals the scan's, position by position, from 1 to 4096
// pieces — on cubes (every split a tie among equal boxes), odd shapes,
// lists mixing large, single-cell and empty boxes, and requests larger
// than the cell count.
func TestSplitEvenlyMatchesScan(t *testing.T) {
	empty := Box{Lo: Index{3, 3, 3}, Hi: Index{2, 5, 5}}
	lists := map[string]BoxList{
		"cube64":   {UnitCube(64)},
		"cube24":   {UnitCube(24)},
		"odd":      {BoxFromShape(Index{-3, 2, 7}, Index{17, 5, 29})},
		"tiny":     {UnitCube(3)}, // 27 cells: runs out of splittable boxes
		"no boxes": {},
		"mixed": {
			UnitCube(1), empty, BoxFromShape(Index{10, 0, 0}, Index{4, 4, 4}),
			BoxFromShape(Index{20, 0, 0}, Index{4, 4, 4}), empty, BoxFromShape(Index{0, 9, 0}, Index{1, 1, 1}),
			BoxFromShape(Index{30, 0, 0}, Index{9, 7, 5}), BoxFromShape(Index{40, 0, 0}, Index{2, 1, 1}),
		},
	}
	var sizes []int
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 127, 128, 129, 500, 1000, 2047, 2048, 4095, 4096)
	for name, l := range lists {
		for _, n := range sizes {
			got, want := l.SplitEvenly(n), splitEvenlyScan(l, n)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: SplitEvenly(%d) diverged from the scan (%d vs %d boxes)", name, n, len(got), len(want))
			}
		}
	}
}

func TestSortByLo(t *testing.T) {
	l := BoxList{
		BoxFromShape(Index{0, 0, 5}, Index{1, 1, 1}),
		BoxFromShape(Index{3, 0, 0}, Index{1, 1, 1}),
		BoxFromShape(Index{1, 0, 0}, Index{1, 1, 1}),
		BoxFromShape(Index{0, 2, 0}, Index{1, 1, 1}),
	}
	l.SortByLo()
	want := []Index{{1, 0, 0}, {3, 0, 0}, {0, 2, 0}, {0, 0, 5}}
	for i, b := range l {
		if b.Lo != want[i] {
			t.Fatalf("SortByLo order wrong at %d: %v", i, b.Lo)
		}
	}
}
