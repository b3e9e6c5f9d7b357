package amr

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// twoSlabHierarchy builds level 0 as two adjacent 4x8x8 slabs owned by
// procs 0 and 1.
func twoSlabHierarchy(t *testing.T, withData bool) (*Hierarchy, *Grid, *Grid) {
	t.Helper()
	h := New(geom.UnitCube(8), 2, 1, 1, withData, "q")
	a := h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 8, 8}), 0, NoGrid)
	b := h.AddGrid(0, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 8, 8}), 1, NoGrid)
	return h, a, b
}

// prolongs reports whether a ghost-plan message is a prolongation: its
// source is its destination's parent. Any other ghost message comes
// from a sibling.
func prolongs(h *Hierarchy, m Message) bool { return h.Grid(m.Dst).Parent == m.Src }

func TestGhostPlanSiblings(t *testing.T) {
	h, a, b := twoSlabHierarchy(t, false)
	plan := h.GhostPlan(0, false)
	// Each slab needs one 1x8x8 plane from the other: 2 messages of
	// 64 cells * 8 bytes.
	if len(plan) != 2 {
		t.Fatalf("expected 2 messages, got %d: %v", len(plan), plan)
	}
	for _, m := range plan {
		if prolongs(h, m) {
			t.Errorf("sibling message classed as prolongation: %v", m)
		}
		if m.Bytes != 64*8 {
			t.Errorf("bytes = %d, want 512", m.Bytes)
		}
		if !((m.Src == a.ID && m.Dst == b.ID) || (m.Src == b.ID && m.Dst == a.ID)) {
			t.Errorf("unexpected endpoints %v", m)
		}
	}
}

func TestGhostPlanDropLocal(t *testing.T) {
	h, _, b := twoSlabHierarchy(t, false)
	b.Owner = 0 // same proc now
	if plan := h.GhostPlan(0, true); len(plan) != 0 {
		t.Errorf("same-owner messages must be dropped: %v", plan)
	}
	if plan := h.GhostPlan(0, false); len(plan) != 2 {
		t.Error("dropLocal=false must keep all messages")
	}
}

func TestGhostPlanParentProlong(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	// A lone fine grid in the middle: all its ghosts come from the
	// parent.
	h.AddGrid(1, geom.BoxFromShape(geom.Index{4, 4, 4}, geom.Index{4, 4, 4}), 1, p.ID)
	plan := h.GhostPlan(1, false)
	if len(plan) != 1 {
		t.Fatalf("expected 1 prolong message, got %v", plan)
	}
	m := plan[0]
	if m.Src != p.ID || !prolongs(h, m) {
		t.Errorf("unexpected message %v", m)
	}
	// Ghost shell of a 4^3 box with width 1 = 6^3-4^3 = 152 cells ->
	// ceil(152/8) = 19 coarse cells * 8 bytes.
	if m.Bytes != 19*8 {
		t.Errorf("bytes = %d, want 152", m.Bytes)
	}
	// Same-owner parent is dropped with dropLocal.
	h.Grids(1)[0].Owner = 0
	if plan := h.GhostPlan(1, true); len(plan) != 0 {
		t.Errorf("local prolong must be dropped: %v", plan)
	}
}

func TestGhostPlanSiblingBeatsParent(t *testing.T) {
	// Two adjacent fine grids: their shared face comes from each
	// other, the rest from the parent.
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{4, 4, 4}, geom.Index{4, 4, 4}), 1, p.ID)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{8, 4, 4}, geom.Index{4, 4, 4}), 2, p.ID)
	plan := h.GhostPlan(1, false)
	var sib, pro int
	for _, m := range plan {
		if prolongs(h, m) {
			pro++
			continue
		}
		sib++
		if m.Bytes != 16*8 {
			t.Errorf("sibling face bytes = %d, want 128", m.Bytes)
		}
	}
	if sib != 2 || pro != 2 {
		t.Errorf("expected 2 sibling + 2 prolong messages, got %d + %d", sib, pro)
	}
}

// fineBox is one level-1 grid of a hand-made ghost-plan case.
type fineBox struct {
	lo, shape geom.Index
	owner     int
}

// oneParentHierarchy builds an 8³ level 0 of one grid on processor 0
// and the given level-1 grids (level-1 domain 16³) under it.
func oneParentHierarchy(nGhost int, fines ...fineBox) *Hierarchy {
	h := New(geom.UnitCube(8), 2, 2, nGhost, false, "q", "p")
	p := h.AddGrid(0, h.Domain, 0, NoGrid)
	for _, f := range fines {
		h.AddGrid(1, geom.BoxFromShape(f.lo, f.shape), f.owner, p.ID)
	}
	return h
}

// assertGhostPlansMatchScan demands GhostPlan ≡ GhostPlanScan element
// by element on every level, with and without dropLocal.
func assertGhostPlansMatchScan(t *testing.T, name string, h *Hierarchy) {
	t.Helper()
	for l := 0; l <= h.MaxLevel; l++ {
		for _, drop := range []bool{false, true} {
			got, want := h.GhostPlan(l, drop), h.GhostPlanScan(l)
			if drop {
				want = h.dropSameOwner(want)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: level %d dropLocal=%v: %d messages, scan %d\n got %v\nwant %v",
					name, l, drop, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: level %d dropLocal=%v message %d: got %+v, scan %+v", name, l, drop, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGhostPlanCountsMatchScan checks the counted prolongation
// remainder against the scan's box subtraction, on hand-made shells and
// on random disjoint hierarchies at ghost widths 1–3.
func TestGhostPlanCountsMatchScan(t *testing.T) {
	g := fineBox{geom.Index{4, 4, 4}, geom.Index{4, 4, 4}, 1}
	// The sibling sits above g in y and is wider in x: it meets g's
	// low-x, high-x and high-y slabs, and sends them in one message.
	threeSlabs := []fineBox{g, {geom.Index{3, 8, 4}, geom.Index{6, 2, 4}, 2}}
	cases := []struct {
		name   string
		nGhost int
		fines  []fineBox
	}{
		{"a lone grid", 1, []fineBox{g}},
		{"no fine grid at all", 1, nil},
		{"shell clipped by a domain face", 2, []fineBox{{geom.Index{0, 4, 4}, geom.Index{4, 4, 4}, 1}}},
		{"shell clipped by a domain edge", 2, []fineBox{{geom.Index{0, 12, 4}, geom.Index{4, 4, 4}, 1}}},
		{"shell clipped by both domain corners", 1, []fineBox{
			{geom.Index{0, 0, 0}, geom.Index{4, 4, 4}, 1}, {geom.Index{12, 12, 12}, geom.Index{4, 4, 4}, 2}}},
		{"ghost width beyond a grid's extent", 3, []fineBox{
			{geom.Index{6, 6, 6}, geom.Index{2, 2, 2}, 1}, {geom.Index{8, 6, 6}, geom.Index{2, 2, 2}, 2},
			{geom.Index{2, 6, 6}, geom.Index{2, 2, 2}, 3}, {geom.Index{6, 10, 6}, geom.Index{2, 2, 2}, 0}}},
		{"one sibling through three slabs", 1, threeSlabs},
		{"a slab half covered", 1, []fineBox{g, {geom.Index{8, 4, 4}, geom.Index{4, 2, 4}, 2}}},
		{"a slab covered by two siblings", 1, []fineBox{
			g, {geom.Index{8, 4, 4}, geom.Index{4, 2, 4}, 2}, {geom.Index{8, 6, 4}, geom.Index{2, 2, 4}, 3}}},
		// With dropLocal the sibling sends nothing, yet the cells it
		// covers are not the parent's to prolong.
		{"a covering sibling on the destination's processor", 1, []fineBox{g, {geom.Index{8, 4, 4}, geom.Index{4, 4, 4}, 1}}},
		{"a fine grid on its parent's processor", 1, []fineBox{{g.lo, g.shape, 0}, {geom.Index{8, 4, 4}, geom.Index{4, 4, 4}, 2}}},
		{"a fully tiled fine level", 2, []fineBox{
			{geom.Index{0, 0, 0}, geom.Index{8, 16, 16}, 1}, {geom.Index{8, 0, 0}, geom.Index{8, 8, 16}, 2},
			{geom.Index{8, 8, 0}, geom.Index{8, 8, 16}, 3}}},
	}
	for _, c := range cases {
		h := oneParentHierarchy(c.nGhost, c.fines...)
		if err := h.CheckProperNesting(); err != nil {
			t.Fatalf("%s: fixture: %v", c.name, err)
		}
		// A level-2 grid under the first fine grid, touching its corner.
		if len(c.fines) > 0 {
			p := h.Grids(1)[0]
			h.AddGrid(2, geom.BoxFromShape(p.Box.Lo.Scale(2), geom.Index{2, 2, 2}), 3, p.ID)
		}
		assertGhostPlansMatchScan(t, c.name, h)
	}
	// The three-slab case, by hand: 6³ − 4³ = 152 shell cells, of which
	// the sibling covers 1·1·4 + 1·1·4 + 4·1·4 = 24 in one message.
	h := oneParentHierarchy(1, threeSlabs...)
	var fromParent []bool
	var bytes []int64
	for _, m := range h.GhostPlan(1, false) {
		if m.Dst == h.Grids(1)[0].ID {
			fromParent, bytes = append(fromParent, prolongs(h, m)), append(bytes, m.Bytes)
		}
	}
	if !slices.Equal(fromParent, []bool{false, true}) ||
		!slices.Equal(bytes, []int64{24 * 16, (152 - 24) / 8 * 16}) {
		t.Errorf("three-slab case: from parent %v bytes %v", fromParent, bytes)
	}

	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		h := randomHierarchy(rng)
		h.NGhost = 1 + trial%3 // plan-only: no patch was sized by it
		for round := 0; round < 3; round++ {
			for l := 0; l <= h.MaxLevel; l++ {
				if !disjoint(h.Boxes(l)) {
					t.Fatalf("trial %d: generator: level %d overlaps", trial, l)
				}
			}
			assertGhostPlansMatchScan(t, fmt.Sprintf("trial %d round %d", trial, round), h)
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				mutate(h, rng)
			}
		}
	}
}

// TestGhostPlanOneMessagePerNeighbour pins the message shape on random
// regridded data hierarchies, every level, as the cached pass builds
// it alongside the fill: a sibling sends a destination one message, a
// destination gets at most one prolongation, and the sibling bytes are
// what a per-slab plan charges, from geom.Subtract(grown ∩ dom, g.Box).
func TestGhostPlanOneMessagePerNeighbour(t *testing.T) {
	type pair struct{ src, dst GridID }
	var msgs, merged int
	for seed := int64(0); seed < 40; seed++ {
		h := regriddedHierarchy(seed, true)
		bytesPerCell := int64(len(h.Fields)) * 8
		for l := 0; l <= h.MaxLevel; l++ {
			sent := map[pair]int64{}
			prolonged := map[GridID]int{}
			for _, m := range h.GhostPlanCached(l) {
				if prolongs(h, m) {
					if prolonged[m.Dst]++; prolonged[m.Dst] > 1 {
						t.Fatalf("seed %d level %d: grid %d gets %d prolongations", seed, l, m.Dst, prolonged[m.Dst])
					}
					continue
				}
				p := pair{m.Src, m.Dst}
				if _, ok := sent[p]; ok {
					t.Fatalf("seed %d level %d: %d sends %d two messages", seed, l, m.Src, m.Dst)
				}
				sent[p] = m.Bytes
				msgs++
			}
			dom := h.DomainAt(l)
			want := map[pair]int64{}
			for _, g := range h.Grids(l) {
				slabs := geom.Subtract(g.Box.Grow(h.NGhost).Intersect(dom), g.Box)
				for _, s := range h.Grids(l) {
					for _, gb := range slabs {
						if ov := gb.Intersect(s.Box); s != g && !ov.Empty() {
							want[pair{s.ID, g.ID}] += ov.NumCells() * bytesPerCell
							merged++
						}
					}
				}
			}
			if !maps.Equal(sent, want) {
				t.Fatalf("seed %d level %d: sibling bytes per (src, dst) differ from the per-slab sums:\n got %v\nwant %v", seed, l, sent, want)
			}
		}
	}
	t.Logf("%d sibling messages where a per-slab plan sends %d", msgs, merged)
	if merged == msgs {
		t.Fatal("fixture: no sibling meets two ghost slabs")
	}
}

// TestPlanCheckCatchesOverlappingLevel proves the -check=plan oracle
// does not share the ghost planner's disjointness assumption: two
// overlapping grids that both reach into a third grid's ghost shell are
// counted twice by GhostPlan's remainder and once by the scan's box
// subtraction, so serving the plan must panic.
func TestPlanCheckCatchesOverlappingLevel(t *testing.T) {
	h := oneParentHierarchy(1,
		fineBox{geom.Index{4, 4, 4}, geom.Index{4, 4, 4}, 1},
		fineBox{geom.Index{8, 4, 4}, geom.Index{4, 4, 4}, 2},
		fineBox{geom.Index{8, 4, 4}, geom.Index{2, 4, 4}, 3}) // inside the second
	if err := h.CheckProperNesting(); err == nil {
		t.Fatal("fixture: the level must overlap")
	}
	// The scan sees the 16 doubly covered cells once: 152 − 16 = 136
	// shell cells left for the parent, 17 coarse cells of two fields.
	dst := h.Grids(1)[0].ID
	for _, m := range h.GhostPlanScan(1) {
		if m.Dst == dst && prolongs(h, m) && m.Bytes != 17*16 {
			t.Fatalf("scan prolongation = %d bytes, want %d", m.Bytes, 17*16)
		}
	}
	h.SetPlanCheck(true)
	assertPanics(t, "serving an overlapping level's ghost plan under plancheck", func() { h.GhostPlanCached(1) })
}

// TestRestrictPlan: one fine grid restricts onto a parent on another
// processor as one transfer of its coarsened cells, and onto a parent
// on its own processor as none.
func TestRestrictPlan(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	c := h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{8, 8, 8}), 1, p.ID)
	// 512 fine cells -> 64 coarse cells * 8 bytes.
	if got, want := h.RestrictTransfers(1), []Transfer{{Src: 1, Dst: 0, Bytes: 64 * 8}}; !slices.Equal(got, want) {
		t.Errorf("transfers = %v, want %v", got, want)
	}
	if h.RestrictTransfers(0) != nil {
		t.Error("level 0 has no restrict plan")
	}
	h.SetOwner(c, 0)
	if got := h.RestrictTransfers(1); len(got) != 0 {
		t.Errorf("local restrict must be dropped, got %v", got)
	}
}

func TestFillGhostsDataSiblingAndClamp(t *testing.T) {
	h, a, b := twoSlabHierarchy(t, true)
	a.Patch.FillConstant("q", 1)
	b.Patch.FillConstant("q", 2)
	h.FillGhostsData(0)
	// a's ghost plane at x=4 must hold b's value.
	if got := a.Patch.At("q", geom.Index{4, 3, 3}); got != 2 {
		t.Errorf("sibling ghost = %v, want 2", got)
	}
	// a's ghost at x=-1 is outside the domain: clamped to interior 1.
	if got := a.Patch.At("q", geom.Index{-1, 3, 3}); got != 1 {
		t.Errorf("boundary ghost = %v, want 1", got)
	}
}

func TestFillGhostsDataProlong(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, true, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	p.Patch.FillConstant("q", 7)
	c := h.AddGrid(1, geom.BoxFromShape(geom.Index{4, 4, 4}, geom.Index{4, 4, 4}), 0, p.ID)
	c.Patch.FillConstant("q", 0)
	h.FillGhostsData(1)
	// A fine ghost cell inside the domain but outside any sibling gets
	// prolonged coarse data.
	if got := c.Patch.At("q", geom.Index{3, 4, 4}); got != 7 {
		t.Errorf("prolonged ghost = %v, want 7", got)
	}
	// Interior untouched.
	if got := c.Patch.At("q", geom.Index{5, 5, 5}); got != 0 {
		t.Errorf("interior overwritten: %v", got)
	}
}

func TestRestrictDataConservative(t *testing.T) {
	h := New(geom.UnitCube(4), 2, 1, 1, true, "q")
	p := h.AddGrid(0, geom.UnitCube(4), 0, NoGrid)
	c := h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 4, 4}), 0, p.ID)
	c.Patch.FillConstant("q", 8)
	h.RestrictData(1)
	// Coarse cells covered by the child become the fine average (8).
	if got := p.Patch.At("q", geom.Index{0, 0, 0}); math.Abs(got-8) > 1e-14 {
		t.Errorf("restricted value = %v", got)
	}
	// Uncovered coarse cells stay 0.
	if got := p.Patch.At("q", geom.Index{3, 3, 3}); got != 0 {
		t.Errorf("uncovered cell touched: %v", got)
	}
}

func TestPlanOnlyHierarchySkipsData(t *testing.T) {
	h, a, _ := twoSlabHierarchy(t, false)
	// Must not panic on nil patches.
	h.FillGhostsData(0)
	h.RestrictData(1)
	if a.Patch != nil {
		t.Error("plan-only hierarchy must not allocate patches")
	}
}
