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
