package amr

import (
	"math"
	"slices"

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
// the grids whose box overlaps the query box, sorted by their
// level-list position, each once. Callers therefore visit their
// sources in exactly the order the O(n²) scans visit the level, which
// is what keeps indexed plans and regrids byte-identical to the scan
// baselines, and need no overlap test of their own.

// maxIndexBuckets caps the bucket-array footprint per level.
const maxIndexBuckets = 1 << 21

// levelIndex is one level's uniform bucket grid.
type levelIndex struct {
	gen     uint64     // the level's structure generation it was built at
	org     geom.Index // low corner of the bucketed region (level domain Lo)
	cell    geom.Index // bucket extent in level cells, per dimension
	dims    geom.Index // bucket count per dimension
	buckets [][]*Grid
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
	li.buckets = make([][]*Grid, li.dims[0]*li.dims[1]*li.dims[2])
	return li
}

// bucketRange returns the clamped bucket-coordinate range the box
// touches. Boxes extending past the bucketed region (grown query
// boxes) clamp to the border buckets, which only widens the set of
// buckets a query filters.
func (li *levelIndex) bucketRange(b geom.Box) (lo, hi geom.Index) {
	bl := b.Lo.Sub(li.org)
	bh := b.Hi.Sub(li.org)
	for d := 0; d < geom.Dims; d++ {
		lo[d] = clampInt(floorDivInt(bl[d], li.cell[d]), 0, li.dims[d]-1)
		hi[d] = clampInt(floorDivInt(bh[d], li.cell[d]), 0, li.dims[d]-1)
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
// of its own. Buckets are filtered while gathering; only the survivors
// are sorted by position and deduplicated, and what out held before
// stays as it was, so successive queries can share one arena.
func (li *levelIndex) query(b geom.Box, out []*Grid) []*Grid {
	n := len(out)
	lo, hi := li.bucketRange(b)
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			base := (z*li.dims[1] + y) * li.dims[0]
			for x := lo[0]; x <= hi[0]; x++ {
				for _, g := range li.buckets[base+x] {
					if g.Box.Intersects(b) {
						out = append(out, g)
					}
				}
			}
		}
	}
	found := out[n:]
	slices.SortFunc(found, func(a, b *Grid) int { return a.pos - b.pos })
	if lo != hi {
		out = out[:n+len(dedupeSorted(found))]
	}
	return out
}

// dedupeSorted compacts adjacent duplicates in a position-sorted list
// (a grid straddling several buckets appears once per bucket).
func dedupeSorted(gs []*Grid) []*Grid {
	w := 0
	for i, g := range gs {
		if i > 0 && g == gs[w-1] {
			continue
		}
		gs[w] = g
		w++
	}
	return gs[:w]
}

// build populates the bucket grid: a per-bucket count pass, a prefix
// sum, then a fill into one shared arena — a handful of allocations
// whatever the level size.
func (li *levelIndex) build(grids []*Grid) {
	if len(grids) == 0 {
		return
	}
	nb := len(li.buckets)
	offs := make([]int32, nb+1)
	for _, g := range grids {
		li.forBuckets(g.Box, func(b int) { offs[b+1]++ })
	}
	for b := 0; b < nb; b++ {
		offs[b+1] += offs[b]
	}
	arena := make([]*Grid, offs[nb])
	next := slices.Clone(offs[:nb])
	for _, g := range grids {
		li.forBuckets(g.Box, func(b int) {
			arena[next[b]] = g
			next[b]++
		})
	}
	for b := 0; b < nb; b++ {
		lo, hi := offs[b], offs[b+1]
		li.buckets[b] = arena[lo:hi]
	}
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
	for _, g := range li.buckets[(at[2]*li.dims[1]+at[1])*li.dims[0]+at[0]] {
		if g.Box.Contains(cell) {
			return g.pos
		}
	}
	return -1
}

func floorDivInt(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
