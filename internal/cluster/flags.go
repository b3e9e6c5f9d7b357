// Package cluster implements the Berger–Rigoutsos point-clustering
// algorithm used by SAMR regridding: given a field of flagged cells
// (cells that need finer resolution), produce a small set of
// rectangular boxes that cover every flagged cell with at least a
// target fill efficiency.
//
// The implementation follows Berger & Rigoutsos, "An algorithm for
// point clustering and grid generation" (IEEE Trans. SMC 21(5), 1991):
// compute per-dimension signatures (flag counts per plane), cut first
// at holes (zero-signature planes), then at the strongest inflection
// point of the discrete Laplacian of the signature, and otherwise
// bisect; recurse until every box is efficient enough or at minimum
// size.
package cluster

import (
	"fmt"

	"samrdlb/internal/geom"
)

// FlagField is a boolean field over a box marking cells that need
// refinement.
type FlagField struct {
	Box   geom.Box
	flags []bool
	count int
}

// NewFlagField returns an all-clear flag field over the box.
func NewFlagField(box geom.Box) *FlagField {
	if box.Empty() {
		panic(fmt.Sprintf("cluster.NewFlagField: empty box %v", box))
	}
	return &FlagField{Box: box, flags: make([]bool, box.NumCells())}
}

// Set flags the cell i. Cells outside the field's box are ignored,
// which lets callers flag from predicates without clipping.
func (f *FlagField) Set(i geom.Index) {
	if !f.Box.Contains(i) {
		return
	}
	off := f.Box.Offset(i)
	if !f.flags[off] {
		f.flags[off] = true
		f.count++
	}
}

// Get reports whether cell i is flagged (false outside the box).
func (f *FlagField) Get(i geom.Index) bool {
	if !f.Box.Contains(i) {
		return false
	}
	return f.flags[f.Box.Offset(i)]
}

// Count returns the number of flagged cells.
func (f *FlagField) Count() int { return f.count }

// CountIn returns the number of flagged cells inside the box b.
func (f *FlagField) CountIn(b geom.Box) int {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return 0
	}
	n := 0
	f.scanRows(b, func(off, width int, _, _ int) {
		for x := 0; x < width; x++ {
			if f.flags[off+x] {
				n++
			}
		}
	})
	return n
}

// scanRows calls fn once per x-row of box b (which must lie within
// f.Box), passing the starting offset into f.flags, the row width,
// and the row's y and z coordinates. It avoids per-cell Offset
// arithmetic in the hot clustering loops.
func (f *FlagField) scanRows(b geom.Box, fn func(off, width, y, z int)) {
	s := f.Box.Shape()
	width := b.Hi[0] - b.Lo[0] + 1
	for z := b.Lo[2]; z <= b.Hi[2]; z++ {
		for y := b.Lo[1]; y <= b.Hi[1]; y++ {
			off := (b.Lo[0] - f.Box.Lo[0]) + s[0]*((y-f.Box.Lo[1])+s[1]*(z-f.Box.Lo[2]))
			fn(off, width, y, z)
		}
	}
}

// SetWhere flags every cell of the field's box for which pred returns
// true and returns the number of newly flagged cells.
func (f *FlagField) SetWhere(pred func(geom.Index) bool) int {
	added := 0
	f.scanRows(f.Box, func(off, width, y, z int) {
		for x := 0; x < width; x++ {
			if pred(geom.Index{f.Box.Lo[0] + x, y, z}) && !f.flags[off+x] {
				f.flags[off+x] = true
				f.count++
				added++
			}
		}
	})
	return added
}

// BoundingBox returns the smallest box containing every flagged cell
// inside b (empty box when there are none).
func (f *FlagField) BoundingBox(b geom.Box) geom.Box {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{-1, -1, -1}}
	}
	lo := geom.Index{1 << 30, 1 << 30, 1 << 30}
	hi := geom.Index{-(1 << 30), -(1 << 30), -(1 << 30)}
	found := false
	f.scanRows(b, func(off, width, y, z int) {
		for x := 0; x < width; x++ {
			if !f.flags[off+x] {
				continue
			}
			i := geom.Index{b.Lo[0] + x, y, z}
			lo = lo.Min(i)
			hi = hi.Max(i)
			found = true
		}
	})
	if !found {
		return geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{-1, -1, -1}}
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// signature returns, for dimension d within box b, the number of
// flagged cells in each plane perpendicular to d. The returned slice
// has b.Shape()[d] entries, entry k counting plane b.Lo[d]+k.
func (f *FlagField) signature(b geom.Box, d int) []int {
	sig := make([]int, b.Shape()[d])
	f.scanRows(b, func(off, width, y, z int) {
		switch d {
		case 0:
			for x := 0; x < width; x++ {
				if f.flags[off+x] {
					sig[x]++
				}
			}
		case 1:
			n := 0
			for x := 0; x < width; x++ {
				if f.flags[off+x] {
					n++
				}
			}
			sig[y-b.Lo[1]] += n
		default:
			n := 0
			for x := 0; x < width; x++ {
				if f.flags[off+x] {
					n++
				}
			}
			sig[z-b.Lo[2]] += n
		}
	})
	return sig
}
