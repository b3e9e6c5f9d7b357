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
	"math/bits"

	"samrdlb/internal/geom"
)

// FlagField is a bit field over a box marking cells that need
// refinement. Each x-row is a run of 64-bit words, bit k of the row
// (word k/64, bit k%64) standing for cell Box.Lo[0]+k; bits past the
// row's width are always zero. It is written and read by rows (SetRows,
// Dilate, the clustering scan); there is no per-cell accessor. A field
// keeps scratch buffers for Dilate and Cluster, so it is not safe for
// concurrent use.
type FlagField struct {
	Box   geom.Box
	words []uint64
	nw    int // words per x-row
	count int

	// Scratch, allocated on first use and large enough for any box in
	// the field: Dilate's saved rows, and the signatures and byte-lane
	// counters of one clusterRecurse node, which are dead once its cut
	// is chosen.
	saved []uint64
	sig   []int
	lanes []uint64
}

// NewFlagField returns an all-clear flag field over the box.
func NewFlagField(box geom.Box) *FlagField {
	if box.Empty() {
		panic(fmt.Sprintf("cluster.NewFlagField: empty box %v", box))
	}
	s := box.Shape()
	nw := (s[0] + 63) / 64
	return &FlagField{Box: box, words: make([]uint64, nw*s[1]*s[2]), nw: nw}
}

// Row is the part of one x-row of a FlagField that SetRows hands a
// driver: Len cells, cell k at x0+k for the x0 SetRows passes.
type Row struct {
	w   []uint64
	off int // bit of w holding cell 0
	n   int
}

// Len returns the number of cells in the row.
func (r Row) Len() int { return r.n }

// Set flags cell k of the row.
func (r Row) Set(k int) {
	if uint(k) >= uint(r.n) {
		panic(fmt.Sprintf("cluster.Row.Set: cell %d of a %d-cell row", k, r.n))
	}
	k += r.off
	r.w[k>>6] |= 1 << (k & 63)
}

// rowAt returns the index in f.words of the first word of the x-row
// (y, z), and the distance between the rows (y, z) and (y, z+1).
func (f *FlagField) rowAt(y, z int) (at, zstride int) {
	zstride = f.nw * (f.Box.Hi[1] - f.Box.Lo[1] + 1)
	return f.nw*(y-f.Box.Lo[1]) + zstride*(z-f.Box.Lo[2]), zstride
}

// SetRows calls fn once per x-row of b, clipped to the field's box, in
// offset order. row holds the cells (x0..x0+row.Len()-1, y, z) and fn
// flags a cell with row.Set; clipping lets callers flag from boxes that
// overhang the field. The flag count is retaken over the visited rows.
func (f *FlagField) SetRows(b geom.Box, fn func(row Row, x0, y, z int)) {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return
	}
	lo, width := b.Lo[0]-f.Box.Lo[0], b.Hi[0]-b.Lo[0]+1
	first, last := lo>>6, (lo+width-1)>>6
	at0, zstride := f.rowAt(b.Lo[1], b.Lo[2])
	for z := b.Lo[2]; z <= b.Hi[2]; z, at0 = z+1, at0+zstride {
		for y, at := b.Lo[1], at0; y <= b.Hi[1]; y, at = y+1, at+f.nw {
			w := f.words[at+first : at+last+1 : at+last+1]
			before := popcount(w)
			fn(Row{w: w, off: lo & 63, n: width}, b.Lo[0], y, z)
			f.count += popcount(w) - before
		}
	}
}

// Count returns the number of flagged cells.
func (f *FlagField) Count() int { return f.count }

// CountIn returns the number of flagged cells inside the box b.
func (f *FlagField) CountIn(b geom.Box) int {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return 0
	}
	lo, width := b.Lo[0]-f.Box.Lo[0], b.Hi[0]-b.Lo[0]+1
	n := 0
	at0, zstride := f.rowAt(b.Lo[1], b.Lo[2])
	for z := b.Lo[2]; z <= b.Hi[2]; z, at0 = z+1, at0+zstride {
		for y, at := b.Lo[1], at0; y <= b.Hi[1]; y, at = y+1, at+f.nw {
			n += countRange(f.words[at:at+f.nw], lo, width)
		}
	}
	return n
}

func popcount(w []uint64) int {
	n := 0
	for _, v := range w {
		n += bits.OnesCount64(v)
	}
	return n
}

// countRange counts the set bits lo..lo+n-1 of the row w.
func countRange(w []uint64, lo, n int) int {
	hi := lo + n - 1
	first, last := lo>>6, hi>>6
	mlo, mhi := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-hi&63)
	if first == last {
		return bits.OnesCount64(w[first] & mlo & mhi)
	}
	c := bits.OnesCount64(w[first]&mlo) + bits.OnesCount64(w[last]&mhi)
	return c + popcount(w[first+1:last])
}

// Dilate expands every flag by the Chebyshev radius r, clipped to the
// field's box, in place: a cube is the product of three intervals, so a
// 1-D dilation along x, then y, then z gives the (2r+1)³ neighbourhood
// of every original flag. Along x each row's words are shift-ORed by
// one cell r times; along y and z each row becomes the OR of the saved
// rows within r of it.
func (f *FlagField) Dilate(r int) {
	if r <= 0 || f.count == 0 {
		return
	}
	s := f.Box.Shape()
	nw := f.nw
	tail := ^uint64(0) >> (63 - (s[0]-1)&63) // the valid bits of a row's last word
	for at := 0; at < len(f.words); at += nw {
		w := f.words[at : at+nw]
		for range min(r, s[0]-1) {
			var prev uint64 // the original word before w[i]
			for i, v := range w {
				var next uint64
				if i+1 < nw {
					next = w[i+1]
				}
				w[i] = v | v<<1 | prev>>63 | v>>1 | next<<63
				prev = v
			}
		}
		w[nw-1] &= tail
	}
	if need := max(s[1], s[2]) * nw; len(f.saved) < need {
		f.saved = make([]uint64, need)
	}
	for z := 0; z < s[2]; z++ { // along y: the rows of one z-plane
		orWindow(f.words[z*s[1]*nw:], f.saved, s[1], nw, nw, r)
	}
	for y := 0; y < s[1]; y++ { // along z: the rows of one y-column
		orWindow(f.words[y*nw:], f.saved, s[2], s[1]*nw, nw, r)
	}
	f.count = popcount(f.words)
}

// orWindow replaces each of the n rows of nw words w[j*stride:], j =
// 0..n-1, with the OR of the original rows j-r..j+r that exist, saving
// the originals in saved first.
func orWindow(w, saved []uint64, n, stride, nw, r int) {
	for j := range n {
		copy(saved[j*nw:(j+1)*nw], w[j*stride:j*stride+nw])
	}
	for j := range n {
		row := w[j*stride : j*stride+nw]
		for i := max(j-r, 0); i <= min(j+r, n-1); i++ {
			if i == j {
				continue
			}
			for k, v := range saved[i*nw : (i+1)*nw] {
				row[k] |= v
			}
		}
	}
}
