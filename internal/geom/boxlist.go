package geom

import "sort"

// BoxList is a collection of boxes, typically (but not necessarily)
// pairwise disjoint.
type BoxList []Box

// NumCells returns the total cell count over all boxes. Overlapping
// cells are counted once per box that contains them.
func (l BoxList) NumCells() int64 {
	var n int64
	for _, b := range l {
		n += b.NumCells()
	}
	return n
}

// Bounding returns the bounding box of the list (empty for an empty
// list).
func (l BoxList) Bounding() Box {
	out := Box{Lo: Index{0, 0, 0}, Hi: Index{-1, -1, -1}}
	for _, b := range l {
		out = out.Union(b)
	}
	return out
}

// Contains reports whether the cell i lies in any box of the list.
func (l BoxList) Contains(i Index) bool {
	for _, b := range l {
		if b.Contains(i) {
			return true
		}
	}
	return false
}

// ContainsBox reports whether the box b is entirely covered by the
// union of the list. It subtracts each list element from b and checks
// that nothing remains.
func (l BoxList) ContainsBox(b Box) bool {
	rest := BoxList{b}
	for _, x := range l {
		var next BoxList
		for _, r := range rest {
			next = append(next, Subtract(r, x)...)
		}
		rest = next
		if len(rest) == 0 {
			return true
		}
	}
	return len(rest) == 0
}

// Disjoint reports whether no two boxes in the list overlap.
func (l BoxList) Disjoint() bool {
	for i := 0; i < len(l); i++ {
		for j := i + 1; j < len(l); j++ {
			if l[i].Intersects(l[j]) {
				return false
			}
		}
	}
	return true
}

// Refine refines every box in the list.
func (l BoxList) Refine(r int) BoxList {
	out := make(BoxList, len(l))
	for i, b := range l {
		out[i] = b.Refine(r)
	}
	return out
}

// Coarsen coarsens every box in the list.
func (l BoxList) Coarsen(r int) BoxList {
	out := make(BoxList, len(l))
	for i, b := range l {
		out[i] = b.Coarsen(r)
	}
	return out
}

// Subtract returns a \ b as a list of disjoint boxes. The standard
// axis-sweep decomposition yields at most 6 boxes in 3-D.
func Subtract(a, b Box) BoxList {
	return SubtractAppend(nil, a, b)
}

// SubtractAppend appends a \ b to dst and returns the extended list —
// the scratch-friendly form of Subtract for callers that reuse a
// buffer across many subtractions.
func SubtractAppend(dst BoxList, a, b Box) BoxList {
	iv := a.Intersect(b)
	if iv.Empty() {
		return append(dst, a)
	}
	if iv == a {
		return dst
	}
	rem := a
	for d := 0; d < Dims; d++ {
		if rem.Lo[d] < iv.Lo[d] {
			lo, hi := rem.SplitAt(d, iv.Lo[d])
			dst = append(dst, lo)
			rem = hi
		}
		if rem.Hi[d] > iv.Hi[d] {
			lo, hi := rem.SplitAt(d, iv.Hi[d]+1)
			dst = append(dst, hi)
			rem = lo
		}
	}
	return dst
}

// SubtractList returns the region of a not covered by any box in bs,
// as disjoint boxes.
func SubtractList(a Box, bs BoxList) BoxList {
	rest := BoxList{a}
	for _, b := range bs {
		var next BoxList
		for _, r := range rest {
			next = append(next, Subtract(r, b)...)
		}
		rest = next
		if len(rest) == 0 {
			break
		}
	}
	return rest
}

// SplitEvenly greedily splits the boxes in the list until it contains
// at least n boxes, always halving the currently largest box along its
// longest dimension. Boxes of a single cell are never split further.
// It is used by the baseline parallel DLB to break up oversized level-0
// grids so they can be spread over all processors.
func (l BoxList) SplitEvenly(n int) BoxList {
	out := append(BoxList{}, l...)
	for len(out) < n {
		// Find the largest splittable box.
		bi, bc := -1, int64(1)
		// The cell count is spelt out through a pointer, not NumCells():
		// a Box is two [3]int arrays, which Go passes on the stack, and
		// that 48-byte copy per call made this O(n²) scan's speed depend
		// on the caller's frame alignment (engine.New at 4096 boxes:
		// 0.2 s or 0.4 s by stack depth). An empty box has a non-positive
		// extent and so never beats bc.
		for i := range out {
			b := &out[i]
			if b.Hi[0] < b.Lo[0] || b.Hi[1] < b.Lo[1] || b.Hi[2] < b.Lo[2] {
				continue
			}
			c := int64(b.Hi[0]-b.Lo[0]+1) * int64(b.Hi[1]-b.Lo[1]+1) * int64(b.Hi[2]-b.Lo[2]+1)
			if c > bc {
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

// SortByLo orders the list lexicographically by the low corner
// (z-major), giving deterministic iteration order independent of
// construction order.
func (l BoxList) SortByLo() {
	sort.Slice(l, func(i, j int) bool {
		a, b := l[i].Lo, l[j].Lo
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[0] < b[0]
	})
}
