package amr

import (
	"math"
	"math/bits"

	"samrdlb/internal/geom"
)

// Spatial neighbor index. The plan builders and the regrid used to
// answer "which grids overlap this box?" by scanning every grid of the
// level — O(n²) per plan build or regrid. Each level instead keeps a
// uniform bucket grid over its index space: a grid is registered in
// every bucket its box touches, so a query gathers the buckets the
// query box touches and keeps the occupants that overlap it. Bucket
// extents track the typical grid size (~cbrt(n) buckets per
// dimension), so a query looks at O(k) grids independent of the
// level's population.
//
// The index is built on first query from the level list as it stands,
// sized for that population, and is valid for the level's structure
// generation. A query's answer is exact, ordered and unique: exactly
// the grids whose box overlaps the query box, in level-list order,
// each once. Callers therefore visit their sources in exactly the
// order the O(n²) scans visit the level, which is what keeps indexed
// plans and regrids byte-identical to the scan baselines, and need no
// overlap test of their own. No query sorts: build fills each bucket
// in level-list order, and a bitmap of positions merges several.

// maxIndexBuckets caps the bucket-array footprint per level.
const maxIndexBuckets = 1 << 21

// levelIndex is one level's uniform bucket grid.
type levelIndex struct {
	gen  uint64     // the level's structure generation it was built at
	org  geom.Index // low corner of the bucketed region (level domain Lo)
	cell geom.Index // bucket extent in level cells, per dimension
	dims geom.Index // bucket count per dimension
	// Bucket k holds arena[offs[k]:offs[k+1]] in level-list order; grids,
	// the arena's tail, is the level list it was built from:
	// grids[g.pos] == g.
	offs         []int32
	arena, grids []*Grid
}

// newLevelIndex sizes the bucket grid for a level expected to hold n
// grids: ~cbrt(n) buckets per dimension, so buckets and grids have
// comparable extents and each grid touches O(1) buckets.
func newLevelIndex(dom geom.Box, n int) *levelIndex {
	li := &levelIndex{org: dom.Lo}
	per := int(math.Cbrt(float64(max(n, 1)))) + 1
	shape := dom.Shape()
	for d := 0; d < geom.Dims; d++ {
		e := shape[d]
		dims := min(per, e)
		li.cell[d] = (e + dims - 1) / dims
		li.dims[d] = (e + li.cell[d] - 1) / li.cell[d]
	}
	for li.dims[0]*li.dims[1]*li.dims[2] > maxIndexBuckets {
		for d := 0; d < geom.Dims; d++ {
			li.cell[d] *= 2
			li.dims[d] = (shape[d] + li.cell[d] - 1) / li.cell[d]
		}
	}
	return li
}

// bucketRange returns the clamped bucket-coordinate range the box
// touches. Boxes extending past the bucketed region (grown query
// boxes) clamp to the border buckets, which only widens the set of
// buckets a query filters. Truncating division stands in for floor
// division: the two differ only below zero, where both clamp to 0.
func (li *levelIndex) bucketRange(b geom.Box) (lo, hi geom.Index) {
	bl := b.Lo.Sub(li.org)
	bh := b.Hi.Sub(li.org)
	for d := 0; d < geom.Dims; d++ {
		lo[d] = min(max(bl[d]/li.cell[d], 0), li.dims[d]-1)
		hi[d] = min(max(bh[d]/li.cell[d], 0), li.dims[d]-1)
	}
	return lo, hi
}

// forBuckets invokes fn with the flat bucket id of every bucket the
// box touches.
func (li *levelIndex) forBuckets(b geom.Box, fn func(int)) {
	lo, hi := li.bucketRange(b)
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			base := (z*li.dims[1] + y) * li.dims[0]
			for x := lo[0]; x <= hi[0]; x++ {
				fn(base + x)
			}
		}
	}
}

// query appends to out exactly the indexed grids whose box overlaps b,
// each once, in level-list order — what a scan of the whole level that
// keeps the overlapping grids visits, so a plan builder needs no test
// of its own. A box inside one bucket takes its occupants as they
// stand. A box over several sets each hit's position in the bitmap
// scr.marks, once however many buckets hold it, and reads the hits back
// over the words touched, zeroing each, so marks is all zero between
// queries. What out held before stays, so queries can share one arena.
func (li *levelIndex) query(b geom.Box, out []*Grid, scr *planScratch) []*Grid {
	lo, hi := li.bucketRange(b)
	if lo == hi {
		k := (lo[2]*li.dims[1]+lo[1])*li.dims[0] + lo[0]
		for _, g := range li.span(k, k) {
			if g.Box.Intersects(b) {
				out = append(out, g)
			}
		}
		return out
	}
	if n := (len(li.grids) + 63) >> 6; len(scr.marks) < n {
		scr.marks = make([]uint64, n)
	}
	marks, first, last := scr.marks, len(li.grids), -1
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			base := (z*li.dims[1] + y) * li.dims[0]
			for _, g := range li.span(base+lo[0], base+hi[0]) {
				if g.Box.Intersects(b) {
					marks[g.pos>>6] |= 1 << (g.pos & 63)
					first, last = min(first, g.pos), max(last, g.pos)
				}
			}
		}
	}
	for w := first >> 6; w <= last>>6; w++ {
		for word := marks[w]; word != 0; word &= word - 1 {
			out = append(out, li.grids[w<<6|bits.TrailingZeros64(word)])
		}
		marks[w] = 0
	}
	return out
}

// overlapsOther reports whether any indexed grid other than g overlaps
// g's box. It scans the buckets under g.Box as it stands now, not where
// g was indexed, and returns on the first hit without allocating.
func (li *levelIndex) overlapsOther(g *Grid) bool {
	lo, hi := li.bucketRange(g.Box)
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			base := (z*li.dims[1] + y) * li.dims[0]
			for _, o := range li.span(base+lo[0], base+hi[0]) {
				if o != g && o.Box.Intersects(g.Box) {
					return true
				}
			}
		}
	}
	return false
}

// span returns the occupants of flat buckets a through b, bucket after
// bucket: one slice, because buckets sit in the arena in flat order. A
// grid in several of them appears once per bucket.
func (li *levelIndex) span(a, b int) []*Grid { return li.arena[li.offs[a]:li.offs[b+1]] }

// build populates the bucket grid: a per-bucket count pass, a prefix
// sum to each bucket's end, then a fill backwards over the level list,
// which leaves each offset at its bucket's start and each bucket in
// level-list order. Two allocations whatever the level size: the
// offsets, and one arena for the buckets and a copy of the list.
func (li *levelIndex) build(grids []*Grid) {
	nb := li.dims[0] * li.dims[1] * li.dims[2]
	offs := make([]int32, nb+1)
	for _, g := range grids {
		li.forBuckets(g.Box, func(b int) { offs[b]++ })
	}
	for b := 1; b <= nb; b++ {
		offs[b] += offs[b-1]
	}
	arena := make([]*Grid, int(offs[nb])+len(grids))
	for i := len(grids) - 1; i >= 0; i-- {
		g := grids[i]
		li.forBuckets(g.Box, func(b int) {
			offs[b]--
			arena[offs[b]] = g
		})
	}
	li.offs, li.arena, li.grids = offs, arena, arena[offs[nb]:]
	copy(li.grids, grids)
}

// indexFor returns level l's spatial index, rebuilding it when the
// level's structure changed since it was built. Callers must hold
// planMu.
func (h *Hierarchy) indexFor(l int) *levelIndex {
	li := h.index[l]
	if li == nil || li.gen != h.gen[l] {
		li = newLevelIndex(h.DomainAt(l), len(h.levels[l]))
		li.gen = h.gen[l]
		li.build(h.levels[l])
		h.index[l] = li
	}
	return li
}

// currentIndex is indexFor for callers that do not hold planMu. An
// index is never written once built, so the caller may query it after
// the lock is released, for as long as level l's structure stands.
func (h *Hierarchy) currentIndex(l int) *levelIndex {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.indexFor(l)
}

// Locator answers which grid of one level holds a cell. It reads the
// level's index, which is never written once built, so it takes no
// lock and holds for as long as the level's structure stands.
type Locator struct{ li *levelIndex }

// Locator returns level l's Locator, taking planMu once to fetch it.
func (h *Hierarchy) Locator(l int) Locator { return Locator{h.currentIndex(l)} }

// Locate returns the position in Grids(l) of the grid whose box holds
// the level-l cell, or -1 when no grid does.
func (lc Locator) Locate(cell geom.Index) int {
	li := lc.li
	at, _ := li.bucketRange(geom.Box{Lo: cell, Hi: cell})
	k := (at[2]*li.dims[1]+at[1])*li.dims[0] + at[0]
	for _, g := range li.span(k, k) {
		if g.Box.Contains(cell) {
			return g.pos
		}
	}
	return -1
}
