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
// longest dimension — the first of the largest, in list order. Boxes of
// a single cell are never split further. It is used by the baseline
// parallel DLB to break up oversized level-0 grids so they can be spread
// over all processors.
func (l BoxList) SplitEvenly(n int) BoxList {
	out := append(BoxList{}, l...)
	// The splittable boxes (two cells or more) wait in a max-heap, so
	// each pick is what a scan for the first largest box would find.
	hp := make(splitHeap, 0, max(n, len(out)))
	for i, b := range out {
		if c := b.NumCells(); c > 1 {
			hp = append(hp, splitKey{c, i})
		}
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		hp.down(i)
	}
	for len(out) < n && len(hp) > 0 {
		bi := hp[0].idx
		lo, hi := out[bi].Halve()
		out[bi] = lo
		out = append(out, hi)
		// The low half keeps the list index and the root; the high half
		// is the list's new last entry.
		if hp[0].cells = lo.NumCells(); hp[0].cells <= 1 {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		hp.down(0)
		if c := hi.NumCells(); c > 1 {
			hp = append(hp, splitKey{c, len(out) - 1})
			hp.up(len(hp) - 1)
		}
	}
	return out
}

// splitKey is a box of SplitEvenly's list: its cell count and index.
type splitKey struct {
	cells int64
	idx   int
}

// splitHeap is a binary max-heap: more cells first, then lower index.
type splitHeap []splitKey

func (h splitHeap) before(i, j int) bool {
	return h[i].cells > h[j].cells || h[i].cells == h[j].cells && h[i].idx < h[j].idx
}

func (h splitHeap) up(i int) {
	for p := (i - 1) / 2; i > 0 && h.before(i, p); i, p = p, (p-1)/2 {
		h[i], h[p] = h[p], h[i]
	}
}

func (h splitHeap) down(i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
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
