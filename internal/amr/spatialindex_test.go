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

// checkQuery asserts the query of li for b returns exactly what a
// brute-force filter of grids, the list li was built from, does: the
// grids overlapping b, in list order, each once, after what out held
// before. It also asserts the query left the bitmap scr.marks all zero.
func checkQuery(t *testing.T, li *levelIndex, grids []*Grid, b geom.Box, scr *planScratch) {
	t.Helper()
	sentinel := &Grid{ID: -1}
	got := li.query(b, []*Grid{sentinel}, scr)
	want := []*Grid{sentinel}
	for _, g := range grids {
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
		t.Fatalf("query(%v) = grids %v, the list filtered = %v", b, ids(got), ids(want))
	}
	if w := slices.IndexFunc(scr.marks, func(m uint64) bool { return m != 0 }); w >= 0 {
		t.Fatalf("query(%v) left word %d of the bitmap set: %#x", b, w, scr.marks[w])
	}
}

// checkLevelQuery is checkQuery on level l's current index.
func checkLevelQuery(t *testing.T, h *Hierarchy, l int, b geom.Box, scr *planScratch) {
	t.Helper()
	checkQuery(t, h.currentIndex(l), h.Grids(l), b, scr)
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
		checkLevelQuery(t, h, 0, q, new(planScratch))
	}
}

// crowdedHierarchy is randomHierarchy with 65 to 264 level-0 grids
// added in random order, so a level's bitmap spans several words and
// its list is out of spatial order from the start.
func crowdedHierarchy(rng *rand.Rand) *Hierarchy {
	dom := geom.UnitCube(32)
	boxes := (geom.BoxList{dom}).SplitEvenly(65 + rng.Intn(200))
	rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	return hierarchyOver(rng, dom, boxes)
}

// indexQueries returns the query boxes the index tests ask level l:
// boxes that straddle bucket borders, lie partly or wholly outside
// the bucketed region, or are empty, each grid's box grown and not,
// and random boxes.
func indexQueries(rng *rand.Rand, h *Hierarchy, l int) []geom.Box {
	dom := h.DomainAt(l)
	cell := h.currentIndex(l).cell
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
	return queries
}

// TestQueryIsExactOrderedAndUnique pins the query contract the plan
// builders rely on — exactly the overlapping grids, in level-list
// order, once — on the levels of random hierarchies, sparse fine
// levels and crowded ones of more than 64 grids alike, for the boxes
// of indexQueries.
func TestQueryIsExactOrderedAndUnique(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		build := randomHierarchy
		if trial%4 == 3 {
			build = crowdedHierarchy
		}
		h := build(rng)
		for i := 0; i < 8; i++ {
			mutate(h, rng) // removals and re-adds put the lists out of spatial order
		}
		scr := new(planScratch)
		for l := 0; l <= h.MaxLevel; l++ {
			for _, q := range indexQueries(rng, h, l) {
				checkLevelQuery(t, h, l, q, scr)
			}
		}
		if trial%4 == 3 && len(scr.marks) < 2 {
			t.Fatalf("trial %d: a crowded level's bitmap has %d words, want several", trial, len(scr.marks))
		}
	}
}

// TestOldLevelIndexAfterClear pins the index RegridAll's initChildren
// reads: taken before ClearLevelsFrom, it still answers over the old
// grids at their old positions after the level is cleared and new
// grids take positions from 0 again.
func TestOldLevelIndexAfterClear(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		build := randomHierarchy
		if trial%2 == 1 {
			build = crowdedHierarchy
		}
		h := build(rng)
		const l = 1
		oli, old := h.currentIndex(l), slices.Clone(h.Grids(l))
		queries := indexQueries(rng, h, l)
		h.ClearLevelsFrom(l)
		for _, p := range h.Grids(l - 1) {
			addUncovered(h, l, randomBoxIn(rng, p.Box), rng.Intn(4), p.ID)
		}
		scr := new(planScratch)
		for _, q := range queries {
			checkQuery(t, oli, old, q, scr)
		}
	}
}

// FuzzLevelIndexQuery checks a query of a random disjoint level — an
// even split of a domain of edge 4 to 47 into up to 300 grids, added
// in random order with about a quarter left out — against the level
// list filtered by overlap, for a fuzzed query box that may reach past
// the domain on any side, or be empty, and for eight seeded ones.
func FuzzLevelIndexQuery(f *testing.F) {
	f.Add(int64(1), uint8(12), uint16(9), int8(-3), int8(2), int8(5), uint8(9), uint8(4), uint8(30))
	f.Add(int64(2), uint8(28), uint16(140), int8(0), int8(0), int8(0), uint8(32), uint8(32), uint8(32))
	f.Add(int64(3), uint8(40), uint16(299), int8(-60), int8(17), int8(44), uint8(70), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, edge uint8, n uint16, qx, qy, qz int8, sx, sy, sz uint8) {
		rng := rand.New(rand.NewSource(seed))
		e := 4 + int(edge)%44
		dom := geom.UnitCube(e)
		h := New(dom, 2, 0, 1, false, "q")
		boxes := (geom.BoxList{dom}).SplitEvenly(1 + int(n)%300)
		rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
		for _, b := range boxes {
			if rng.Intn(4) > 0 {
				h.AddGrid(0, b, 0, NoGrid)
			}
		}
		var q geom.Box
		for d, v := range [3]int8{qx, qy, qz} {
			q.Lo[d] = int(v) % (e + 10)
			q.Hi[d] = q.Lo[d] + int([3]uint8{sx, sy, sz}[d])%(e+10) - 1
		}
		scr := new(planScratch)
		checkLevelQuery(t, h, 0, q, scr)
		for i := 0; i < 8; i++ {
			checkLevelQuery(t, h, 0, randomBoxIn(rng, dom).Grow(rng.Intn(4)), scr)
		}
	})
}
