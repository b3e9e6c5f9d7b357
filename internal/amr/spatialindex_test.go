package amr

import (
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// randomBoxIn returns a random non-empty box inside dom.
func randomBoxIn(rng *rand.Rand, dom geom.Box) geom.Box {
	var lo, hi geom.Index
	for d := 0; d < geom.Dims; d++ {
		a := dom.Lo[d] + rng.Intn(dom.Shape()[d])
		b := dom.Lo[d] + rng.Intn(dom.Shape()[d])
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// checkQuery asserts the index query for b returns exactly what a
// brute-force filter of the level list does: the grids overlapping b,
// in level-list order, each once.
func checkQuery(t *testing.T, h *Hierarchy, l int, b geom.Box) {
	t.Helper()
	h.planMu.Lock()
	got := h.indexFor(l).query(b, nil)
	h.planMu.Unlock()
	var want []*Grid
	for _, g := range h.Grids(l) {
		if g.Box.Intersects(b) {
			want = append(want, g)
		}
	}
	if !slices.Equal(got, want) {
		ids := func(gs []*Grid) (out []GridID) {
			for _, g := range gs {
				out = append(out, g.ID)
			}
			return out
		}
		t.Fatalf("level %d query(%v) = grids %v, the level list filtered = %v", l, b, ids(got), ids(want))
	}
}

func TestLevelIndexQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dom := geom.UnitCube(48)
	h := New(dom, 2, 0, 1, false, "q")
	for _, b := range (geom.BoxList{dom}).SplitEvenly(60) {
		h.AddGrid(0, b, rng.Intn(4), NoGrid)
	}
	for i := 0; i < 200; i++ {
		// Include boxes that poke past the domain, as grown ghost
		// queries do: they clamp to the border buckets.
		q := randomBoxIn(rng, dom).Grow(rng.Intn(3))
		checkQuery(t, h, 0, q)
	}
}

// TestQueryIsExactOrderedAndUnique pins the query contract the plan
// builders rely on — exactly the overlapping grids, in level-list
// order, once — on the sparse fine levels of random hierarchies, for
// query boxes that straddle bucket borders, lie partly or wholly
// outside the bucketed region, or are empty.
func TestQueryIsExactOrderedAndUnique(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		h := randomHierarchy(rng)
		for i := 0; i < 8; i++ {
			mutate(h, rng) // removals and re-adds put the lists out of spatial order
		}
		for l := 0; l <= h.MaxLevel; l++ {
			dom := h.DomainAt(l)
			h.planMu.Lock()
			cell := h.indexFor(l).cell
			h.planMu.Unlock()
			n := dom.Shape()[0]
			queries := []geom.Box{
				dom, dom.Grow(5),
				{Lo: geom.Index{-9, -9, -9}, Hi: geom.Index{-2, -2, -2}},    // outside, low
				{Lo: geom.Index{n + 1, 0, 0}, Hi: geom.Index{n + 7, n, n}},  // outside, high
				{Lo: geom.Index{-4, -4, -4}, Hi: geom.Index{0, 0, 0}},       // one corner cell inside
				{Lo: geom.Index{5, 5, 5}, Hi: geom.Index{4, 9, 9}},          // empty
				{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{n - 1, n - 1, -1}}, // empty
				// One cell either side of the first bucket border, per axis.
				{Lo: geom.Index{cell[0] - 1, 0, 0}, Hi: geom.Index{cell[0], n - 1, n - 1}},
				{Lo: geom.Index{0, cell[1] - 1, 0}, Hi: geom.Index{n - 1, cell[1], n - 1}},
				{Lo: geom.Index{0, 0, cell[2] - 1}, Hi: geom.Index{n - 1, n - 1, cell[2]}},
			}
			for _, g := range h.Grids(l) {
				queries = append(queries, g.Box, g.Box.Grow(h.NGhost), g.Box.Grow(3).Intersect(dom))
			}
			for i := 0; i < 40; i++ {
				queries = append(queries, randomBoxIn(rng, dom).Grow(rng.Intn(3)))
			}
			for _, q := range queries {
				checkQuery(t, h, l, q)
			}
		}
	}
}
