package amr

import (
	"math/rand"
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

// checkQuery asserts the index query for b returns a pos-sorted,
// duplicate-free candidate list that contains every level grid
// intersecting b and nothing outside the level.
func checkQuery(t *testing.T, h *Hierarchy, l int, b geom.Box) {
	t.Helper()
	h.planMu.Lock()
	li := h.indexFor(l)
	got := li.query(b, nil)
	h.planMu.Unlock()
	inLevel := make(map[*Grid]bool, len(h.Grids(l)))
	for _, g := range h.Grids(l) {
		inLevel[g] = true
	}
	seen := make(map[*Grid]bool, len(got))
	for i, g := range got {
		if !inLevel[g] {
			t.Fatalf("query(%v) returned grid %d not on level %d", b, g.ID, l)
		}
		if seen[g] {
			t.Fatalf("query(%v) returned grid %d twice", b, g.ID)
		}
		seen[g] = true
		if i > 0 && got[i-1].pos >= g.pos {
			t.Fatalf("query(%v) candidates out of level-list order at %d", b, i)
		}
	}
	for _, g := range h.Grids(l) {
		if g.Box.Intersects(b) && !seen[g] {
			t.Fatalf("query(%v) missed intersecting grid %d box %v", b, g.ID, g.Box)
		}
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
		// queries do: clamping to border buckets must stay a superset.
		q := randomBoxIn(rng, dom).Grow(rng.Intn(3))
		checkQuery(t, h, 0, q)
	}
}

func TestLevelIndexIncrementalMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dom := geom.UnitCube(48)
	h := New(dom, 2, 0, 1, false, "q")
	boxes := (geom.BoxList{dom}).SplitEvenly(40)
	for _, b := range boxes {
		h.AddGrid(0, b, 0, NoGrid)
	}
	// Force the index to exist before mutating, so the mutation hooks
	// (not a lazy rebuild) are what keep it current.
	checkQuery(t, h, 0, dom)
	for step := 0; step < 30; step++ {
		gs := h.Grids(0)
		if rng.Intn(2) == 0 && len(gs) > 8 {
			h.RemoveGrid(gs[rng.Intn(len(gs))].ID)
		} else {
			h.AddGrid(0, randomBoxIn(rng, dom), 0, NoGrid)
		}
		for i := 0; i < 5; i++ {
			checkQuery(t, h, 0, randomBoxIn(rng, dom))
		}
	}
}

func TestLevelIndexRebuildTracksPopulation(t *testing.T) {
	dom := geom.UnitCube(64)
	h := New(dom, 2, 0, 1, false, "q")
	boxes := (geom.BoxList{dom}).SplitEvenly(4)
	for _, b := range boxes {
		h.AddGrid(0, b, 0, NoGrid)
	}
	h.planMu.Lock()
	small := h.indexFor(0)
	h.planMu.Unlock()
	if small.sizedFor != 4 {
		t.Fatalf("sizedFor = %d, want 4", small.sizedFor)
	}
	// Grow far past the rebuild threshold: indexFor must resize.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4*indexRebuildFactor+indexRebuildSlop; i++ {
		h.AddGrid(0, randomBoxIn(rng, dom), 0, NoGrid)
	}
	h.planMu.Lock()
	big := h.indexFor(0)
	h.planMu.Unlock()
	if big == small {
		t.Fatal("index not rebuilt after population growth")
	}
	if big.sizedFor != len(h.Grids(0)) {
		t.Fatalf("sizedFor = %d, want %d", big.sizedFor, len(h.Grids(0)))
	}
	checkQuery(t, h, 0, dom)
	// Shrink far below the resolution: indexFor must rebuild again.
	var ids []GridID
	for _, g := range h.Grids(0)[2:] {
		ids = append(ids, g.ID)
	}
	for _, id := range ids {
		h.RemoveGrid(id)
	}
	h.planMu.Lock()
	shrunk := h.indexFor(0)
	h.planMu.Unlock()
	if shrunk == big {
		t.Fatal("index not rebuilt after population collapse")
	}
	checkQuery(t, h, 0, dom)
}

// TestLevelIndexBuildMatchesInsert holds the arena build to the
// incremental path: a level built in one pass answers every query as
// the same level registered grid by grid.
func TestLevelIndexBuildMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dom := geom.UnitCube(96)
	h := New(dom, 2, 0, 1, false, "q")
	boxes := (geom.BoxList{dom}).SplitEvenly(2548)
	for _, b := range boxes {
		h.AddGrid(0, b, 0, NoGrid)
	}
	grids := h.Grids(0)
	inserted := newLevelIndex(dom, len(grids))
	for _, g := range grids {
		inserted.insert(g)
	}
	built := newLevelIndex(dom, len(grids))
	built.build(grids)
	if built.count != inserted.count {
		t.Fatalf("built count %d, inserted %d", built.count, inserted.count)
	}
	for i := 0; i < 300; i++ {
		q := randomBoxIn(rng, dom)
		a := inserted.query(q, nil)
		b := built.query(q, nil)
		if len(a) != len(b) {
			t.Fatalf("query(%v): inserted %d candidates, built %d", q, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query(%v) candidate %d: inserted grid %d, built grid %d",
					q, j, a[j].ID, b[j].ID)
			}
		}
	}
}
