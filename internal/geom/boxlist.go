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

// IntersectBox returns the non-empty intersections of each list
// element with b.
func (l BoxList) IntersectBox(b Box) BoxList {
	var out BoxList
	for _, x := range l {
		if iv := x.Intersect(b); !iv.Empty() {
			out = append(out, iv)
		}
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
		// Indexed, not ranged by value: the 48-byte copy to the stack made
		// this O(n²) scan's speed depend on the caller's frame alignment
		// (engine.New at 4096 boxes: 0.2 s or 0.36 s by stack depth).
		for i := range out {
			if c := out[i].NumCells(); c > bc {
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

// Coalesce greedily merges pairs of boxes whose union is exactly
// their bounding box (same cross-section, adjacent along one axis),
// repeating until no merge applies. For disjoint inputs the result
// covers exactly the same cells with (usually far) fewer boxes —
// fewer grids means fewer messages and less per-grid overhead.
func (l BoxList) Coalesce() BoxList {
	out := append(BoxList{}, l...)
	for {
		merged := false
	outer:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if u, ok := mergeBoxes(out[i], out[j]); ok {
					out[i] = u
					out = append(out[:j], out[j+1:]...)
					merged = true
					break outer
				}
			}
		}
		if !merged {
			return out
		}
	}
}

// mergeBoxes returns the union if a and b tile it exactly.
func mergeBoxes(a, b Box) (Box, bool) {
	u := a.Union(b)
	if u.NumCells() == a.NumCells()+b.NumCells() && !a.Intersects(b) {
		return u, true
	}
	return Box{}, false
}
