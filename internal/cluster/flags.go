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
// size. Every node of the recursion reads its box once: the three
// signatures come from one pass over its x-rows, and the bounding
// box, the flag count and both cut searches are derived from them.
package cluster

import (
	"fmt"

	"samrdlb/internal/geom"
)

// FlagField is a boolean field over a box marking cells that need
// refinement. It is written and read by x-rows (SetRows, Dilate, the
// clustering scan); there is no per-cell accessor.
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

// SetRows calls fn once per x-row of b, clipped to the field's box, in
// offset order. row holds the flags of cells (x0..x0+len(row)-1, y, z)
// and fn flags a cell by writing true to its entry; clipping lets
// callers flag from boxes that overhang the field. The flag count is
// retaken over the visited rows.
func (f *FlagField) SetRows(b geom.Box, fn func(row []bool, x0, y, z int)) {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return
	}
	f.scanRows(b, func(off, width, y, z int) {
		row := f.flags[off : off+width : off+width]
		before := countRow(row)
		fn(row, b.Lo[0], y, z)
		f.count += countRow(row) - before
	})
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
		n += countRow(f.flags[off : off+width])
	})
	return n
}

func countRow(row []bool) int {
	n := 0
	for _, set := range row {
		if set {
			n++
		}
	}
	return n
}

// scanRows calls fn once per x-row of box b (which must lie within
// f.Box), passing the starting offset into f.flags, the row width,
// and the row's y and z coordinates. It avoids per-cell offset
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

// Dilate expands every flag by the Chebyshev radius r, clipped to the
// field's box, in place: a cube is the product of three intervals, so
// one 1-D dilation along x, then y, then z over the same array gives
// the (2r+1)³ neighbourhood of every original flag.
func (f *FlagField) Dilate(r int) {
	if r <= 0 || f.count == 0 {
		return
	}
	s := f.Box.Shape()
	stride := [geom.Dims]int{1, s[0], s[0] * s[1]}
	for d := 0; d < geom.Dims; d++ {
		// One line along d starts at every cell of the face d = Lo[d];
		// a < b are the other two dimensions, a innermost so that
		// neighbouring lines share cache lines.
		a, b := (d+1)%geom.Dims, (d+2)%geom.Dims
		if a > b {
			a, b = b, a
		}
		for j := 0; j < s[b]; j++ {
			for i := 0; i < s[a]; i++ {
				dilateLine(f.flags[i*stride[a]+j*stride[b]:], s[d], stride[d], r)
			}
		}
	}
	f.count = countRow(f.flags)
}

// dilateLine dilates the n cells line[0], line[stride], … by r in
// place. The cursor reads each cell exactly once, before anything is
// written at or ahead of it, so every value read is an original one:
// an original flag sets the up to r cells behind it that are not set
// yet (behind the cursor, never read again) and arms reach = r; a
// clear cell is set, and reach counted down, while the last original
// flag lies within r behind it.
func dilateLine(line []bool, n, stride, r int) {
	reach := 0 // cells from the cursor on that the last original flag still covers
	done := 0  // the cells [k-r, done) behind the cursor k are already set
	for k, at := 0, 0; k < n; k, at = k+1, at+stride {
		switch {
		case line[at]:
			for j := max(k-r, done); j < k; j++ {
				line[j*stride] = true
			}
			reach, done = r, k+1
		case reach > 0:
			line[at] = true
			reach--
			done = k + 1
		}
	}
}
