package geom

import "fmt"

// Box is a closed axis-aligned box of cells in the integer index
// space: it contains every Index i with Lo.AllLE(i) && i.AllLE(Hi).
// A Box is empty when Hi[d] < Lo[d] in any dimension.
type Box struct {
	Lo, Hi Index
}

// BoxFromShape returns the box anchored at lo with the given extent in
// each dimension (shape[d] cells along dimension d).
func BoxFromShape(lo Index, shape Index) Box {
	return Box{Lo: lo, Hi: lo.Add(shape).Sub(Index{1, 1, 1})}
}

// UnitCube returns the box [0,n-1]^3.
func UnitCube(n int) Box {
	return Box{Lo: Index{0, 0, 0}, Hi: Index{n - 1, n - 1, n - 1}}
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool {
	return b.Hi[0] < b.Lo[0] || b.Hi[1] < b.Lo[1] || b.Hi[2] < b.Lo[2]
}

// Shape returns the extent of the box in each dimension. For empty
// boxes negative extents may appear; callers should check Empty first.
func (b Box) Shape() Index {
	return b.Hi.Sub(b.Lo).Add(Index{1, 1, 1})
}

// NumCells returns the number of cells in the box (0 if empty). It is
// written out so that it inlines: the plan builders call it per
// overlap.
func (b Box) NumCells() int64 {
	x, y, z := b.Hi[0]-b.Lo[0]+1, b.Hi[1]-b.Lo[1]+1, b.Hi[2]-b.Lo[2]+1
	if min(x, y, z) <= 0 {
		return 0
	}
	return int64(x) * int64(y) * int64(z)
}

// Contains reports whether the cell i lies inside the box.
func (b Box) Contains(i Index) bool {
	return b.Lo.AllLE(i) && i.AllLE(b.Hi)
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in every box.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	return b.Lo.AllLE(o.Lo) && o.Hi.AllLE(b.Hi)
}

// Intersect returns the overlap of b and o, which may be empty.
func (b Box) Intersect(o Box) Box {
	return Box{Lo: b.Lo.Max(o.Lo), Hi: b.Hi.Min(o.Hi)}
}

// Intersects reports whether b and o share at least one cell:
// !b.Intersect(o).Empty(), spelt out per axis so that it inlines.
func (b Box) Intersects(o Box) bool {
	return max(b.Lo[0], o.Lo[0]) <= min(b.Hi[0], o.Hi[0]) &&
		max(b.Lo[1], o.Lo[1]) <= min(b.Hi[1], o.Hi[1]) &&
		max(b.Lo[2], o.Lo[2]) <= min(b.Hi[2], o.Hi[2])
}

// Union returns the bounding box of b and o. Empty operands are
// ignored; the union of two empty boxes is empty.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{Lo: b.Lo.Min(o.Lo), Hi: b.Hi.Max(o.Hi)}
}

// Refine maps the box to the next finer level with refinement factor
// r: each coarse cell becomes an r^3 block of fine cells.
func (b Box) Refine(r int) Box {
	return Box{Lo: b.Lo.Scale(r), Hi: b.Hi.Scale(r).Add(Index{r - 1, r - 1, r - 1})}
}

// Coarsen maps the box to the next coarser level with refinement
// factor r, using floor division so the result covers every coarse
// cell touched by the fine box.
func (b Box) Coarsen(r int) Box {
	return Box{Lo: b.Lo.FloorDiv(r), Hi: b.Hi.FloorDiv(r)}
}

// Grow expands the box by n cells in every direction (negative n
// shrinks it).
func (b Box) Grow(n int) Box {
	g := Index{n, n, n}
	return Box{Lo: b.Lo.Sub(g), Hi: b.Hi.Add(g)}
}

// GrowDim expands the box by lo cells on the low side and hi cells on
// the high side of dimension d only.
func (b Box) GrowDim(d, lo, hi int) Box {
	b.Lo[d] -= lo
	b.Hi[d] += hi
	return b
}

// SplitAt cuts the box along dimension d so that the first part holds
// indices < at and the second part holds indices >= at. Callers must
// ensure Lo[d] < at <= Hi[d] for both halves to be non-empty.
func (b Box) SplitAt(d, at int) (Box, Box) {
	lo, hi := b, b
	lo.Hi[d] = at - 1
	hi.Lo[d] = at
	return lo, hi
}

// Halve splits the box at the midpoint of its longest dimension.
func (b Box) Halve() (Box, Box) {
	d := b.Shape().MaxDim()
	at := b.Lo[d] + (b.Hi[d]-b.Lo[d]+1)/2
	return b.SplitAt(d, at)
}

// Offset returns the linear offset of cell i within the box using
// x-fastest (Fortran-like) ordering, matching the field storage layout
// in package grid. The cell must be inside the box.
func (b Box) Offset(i Index) int {
	s := b.Shape()
	return (i[0] - b.Lo[0]) + s[0]*((i[1]-b.Lo[1])+s[1]*(i[2]-b.Lo[2]))
}

// IndexAt is the inverse of Offset.
func (b Box) IndexAt(off int) Index {
	s := b.Shape()
	x := off % s[0]
	off /= s[0]
	y := off % s[1]
	z := off / s[1]
	return Index{b.Lo[0] + x, b.Lo[1] + y, b.Lo[2] + z}
}

// ForEach calls fn for every cell in the box in Offset order.
func (b Box) ForEach(fn func(Index)) {
	if b.Empty() {
		return
	}
	for z := b.Lo[2]; z <= b.Hi[2]; z++ {
		for y := b.Lo[1]; y <= b.Hi[1]; y++ {
			for x := b.Lo[0]; x <= b.Hi[0]; x++ {
				fn(Index{x, y, z})
			}
		}
	}
}

func (b Box) String() string {
	return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi)
}
