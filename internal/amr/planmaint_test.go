package amr

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"samrdlb/internal/geom"
)

// addUncovered adds a level-l grid on the first piece of the box that
// no grid of the level covers, if there is one — the grids of a level
// stay disjoint, as CheckProperNesting demands and the ghost planner's
// counted remainder assumes. A fine grid's box is given in level-(l−1)
// cells, so the piece stays aligned to the refinement factor.
func addUncovered(h *Hierarchy, l int, box geom.Box, owner int, parent GridID) {
	r := 1
	if l > 0 {
		r = h.RefFactor
	}
	if rest := geom.SubtractList(box, coarsened(h.Boxes(l), r)); len(rest) > 0 {
		h.AddGrid(l, rest[0].Refine(r), owner, parent)
	}
}

// randomHierarchy builds a 2–3 level hierarchy with a random level-0
// tiling and random refined children, for plan-equivalence trials.
func randomHierarchy(rng *rand.Rand) *Hierarchy {
	dom := geom.UnitCube(32)
	return hierarchyOver(rng, dom, (geom.BoxList{dom}).SplitEvenly(4+rng.Intn(16)))
}

// hierarchyOver builds a 2–3 level hierarchy over dom with level 0
// made of boxes, in their order, and random refined children.
func hierarchyOver(rng *rand.Rand, dom geom.Box, boxes geom.BoxList) *Hierarchy {
	h := New(dom, 2, 2, 1, false, "q")
	for _, b := range boxes {
		h.AddGrid(0, b, rng.Intn(4), NoGrid)
	}
	for l := 0; l < h.MaxLevel; l++ {
		for _, p := range h.Grids(l) {
			if rng.Intn(10) < 6 {
				addUncovered(h, l+1, randomBoxIn(rng, p.Box), rng.Intn(4), p.ID)
			}
		}
	}
	return h
}

// servePlans pulls every cached plan kind at every level, so the
// -check=plan oracle (when armed) verifies each against its scan
// baseline.
func servePlans(h *Hierarchy) {
	for l := 0; l <= h.MaxLevel; l++ {
		h.GhostPlanCached(l)
		h.GhostTransfers(l)
		h.RestrictTransfers(l)
		h.fillPlan(l)
		if l > 0 {
			h.restrictPlan(l)
			h.interfacePlan(l)
		}
	}
}

func msgsEqual(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childless returns the grids that can be removed outright.
func childless(h *Hierarchy) []*Grid {
	var out []*Grid
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			if len(h.Children(g)) == 0 {
				out = append(out, g)
			}
		}
	}
	return out
}

// mutate applies one random structural or ownership mutation.
func mutate(h *Hierarchy, rng *rand.Rand) {
	switch rng.Intn(8) {
	case 0: // add a level-0 grid (where an earlier removal left a hole)
		addUncovered(h, 0, randomBoxIn(rng, h.Domain), rng.Intn(4), NoGrid)
	case 1: // add a child under a random parent
		l := rng.Intn(h.MaxLevel)
		if gs := h.Grids(l); len(gs) > 0 {
			p := gs[rng.Intn(len(gs))]
			addUncovered(h, l+1, randomBoxIn(rng, p.Box), rng.Intn(4), p.ID)
		}
	case 2: // remove a childless grid
		if cs := childless(h); len(cs) > 0 {
			h.RemoveGrid(cs[rng.Intn(len(cs))].ID)
		}
	case 3: // split a grid (migration-style mutation)
		l := rng.Intn(h.MaxLevel + 1)
		if gs := h.Grids(l); len(gs) > 0 {
			g := gs[rng.Intn(len(gs))]
			d := rng.Intn(geom.Dims)
			// Fine boxes stay aligned to the refinement factor (the
			// interface plan refuses anything else).
			step := 1
			if l > 0 {
				step = h.RefFactor
			}
			if n := g.Box.Shape()[d] / step; n >= 2 {
				h.SplitGrid(g, d, g.Box.Lo[d]+step*(1+rng.Intn(n-1)))
			}
		}
	case 4: // ownership churn (invalidates the pair tables only)
		l := rng.Intn(h.MaxLevel + 1)
		if gs := h.Grids(l); len(gs) > 0 {
			h.SetOwner(gs[rng.Intn(len(gs))], rng.Intn(4))
		}
	case 5: // deterministic reorder
		h.SortLevel(rng.Intn(h.MaxLevel + 1))
	case 6: // re-link a fine grid under another coarse grid (the plans
		// read the link itself — prolong attribution, restrict
		// grouping — so the new parent need not contain the child)
		l := 1 + rng.Intn(h.MaxLevel)
		if gs := h.Grids(l); len(gs) > 0 {
			ps := h.Grids(l - 1)
			h.setParent(gs[rng.Intn(len(gs))], ps[rng.Intn(len(ps))].ID)
		}
	case 7: // regrid-style wholesale clear and rebuild
		if gs := h.Grids(h.MaxLevel - 1); len(gs) > 0 {
			h.ClearLevelsFrom(h.MaxLevel)
			for _, p := range gs {
				if rng.Intn(2) == 0 {
					addUncovered(h, h.MaxLevel, randomBoxIn(rng, p.Box), rng.Intn(4), p.ID)
				}
			}
		}
	}
}

// TestPlanPatchingMatchesScan is the amr-level equivalence property:
// over randomized hierarchies and mutation histories, every cached
// plan of every kind served after the mutations and the indexed
// scratch plans must be bitwise equal to the O(n²) scan baselines —
// the -check=plan oracle panics on the first divergence, and the
// scratch builders are compared directly for both dropLocal variants.
// TestChildrenMatchesScan compares Children, read from the child
// tables, with a scan of the next level for the parent link, on every
// grid of random hierarchies after each of a run of mutations —
// re-links to a parent that does not contain the child included — and
// checks that a caller appending to the answer cannot write the table.
func TestChildrenMatchesScan(t *testing.T) {
	same := func(what string, h *Hierarchy) {
		for l := 0; l <= h.MaxLevel; l++ {
			for _, g := range h.Grids(l) {
				var want []*Grid
				for _, c := range h.Grids(l + 1) {
					if c.Parent == g.ID {
						want = append(want, c)
					}
				}
				got := h.Children(g)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Children(%d) = %v, scan %v", what, g.ID, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("%s: Children(%d) has spare capacity %d", what, g.ID, cap(got)-len(got))
				}
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHierarchy(rng)
		for round := 0; round < 12; round++ {
			same(fmt.Sprintf("seed %d round %d", seed, round), h)
			mutate(h, rng)
		}
		// Hundreds of children spread over three parents, level order
		// then reshuffled by SortLevel: ties on the parent are many.
		h = New(geom.UnitCube(8), 2, 1, 1, false, "q")
		ps := []*Grid{h.AddGrid(0, geom.UnitCube(4), 0, NoGrid),
			h.AddGrid(0, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 8, 8}), 0, NoGrid),
			h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 4, 0}, geom.Index{4, 4, 8}), 0, NoGrid)}
		boxes := geom.BoxList{h.DomainAt(1)}.SplitEvenly(200 + rng.Intn(200))
		rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
		for _, b := range boxes {
			h.AddGrid(1, b, 0, ps[rng.Intn(len(ps))].ID)
		}
		same(fmt.Sprintf("seed %d, three parents", seed), h)
		h.SortLevel(1)
		same(fmt.Sprintf("seed %d, three parents sorted", seed), h)
	}
}

func TestPlanPatchingMatchesScan(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		h := randomHierarchy(rng)
		h.SetPlanCheck(true)
		servePlans(h) // first builds verified
		for round := 0; round < 4; round++ {
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				mutate(h, rng)
			}
			servePlans(h) // rebuilds (or cached survivors) verified
			for l := 0; l <= h.MaxLevel; l++ {
				for _, dl := range []bool{false, true} {
					want := h.GhostPlanScan(l)
					if dl {
						want = h.dropSameOwner(want)
					}
					if got := h.GhostPlan(l, dl); !msgsEqual(got, want) {
						t.Fatalf("trial %d round %d: GhostPlan(%d, %v) diverged from scan:\n got %v\nwant %v",
							trial, round, l, dl, got, want)
					}
				}
			}
		}
	}
}

// TestPlanInvalidationRule pins the rule itself: level l's plans are
// served from the same backing arrays until the structure of level l
// or l−1 changes. Ownership churn and mutations at l+1 or l−2 keep
// them; each of the five structural mutations at l replaces them, and
// each at l−1 replaces all but the restriction's, the child table,
// which reads level l alone and names parents by ID.
func TestPlanInvalidationRule(t *testing.T) {
	dom := geom.UnitCube(8)
	h := New(dom, 2, 3, 1, false, "q")
	h.SetPlanCheck(true)
	// One chain of nested grids plus a spare sibling per level, so every
	// plan is non-empty and every level has a childless grid to remove.
	parent := NoGrid
	for l := 0; l <= h.MaxLevel; l++ {
		lo, hi := h.DomainAt(l).SplitAt(0, h.DomainAt(l).Shape()[0]/2)
		g := h.AddGrid(l, lo, 0, parent)
		h.AddGrid(l, hi, 1, parent)
		parent = g.ID
	}
	const l = 2
	type served struct {
		ghost    *Message
		restrict **Grid
		fill     *fillDest
		iface    *interfacePlan
	}
	serve := func() served {
		return served{&h.GhostPlanCached(l)[0], &h.restrictPlan(l)[0], &h.fillPlan(l)[0], h.interfacePlan(l)}
	}
	spare := func(lv int) *Grid { return h.Grids(lv)[len(h.Grids(lv))-1] }
	addRemove := func(lv int) {
		g := spare(lv)
		h.RemoveGrid(g.ID)
		h.AddGrid(lv, g.Box, g.Owner, g.Parent)
	}
	relink := func(lv int) {
		g := spare(lv)
		old := g.Parent
		h.setParent(g, NoGrid)
		h.setParent(g, old)
	}

	type step struct {
		name string
		do   func()
	}
	for _, m := range []step{
		{"SetOwner at l", func() { h.SetOwner(h.Grids(l)[0], 3) }},
		{"SetOwner at l-1", func() { h.SetOwner(h.Grids(l - 1)[0], 3) }},
		{"add/remove at l+1", func() { addRemove(l + 1) }},
		{"re-link at l+1", func() { relink(l + 1) }},
		{"SortLevel(l+1)", func() { h.SortLevel(l + 1) }},
		{"add/remove at l-2", func() { addRemove(l - 2) }},
		{"SortLevel(l-2)", func() { h.SortLevel(l - 2) }},
		{"serving other levels", func() { h.GhostPlanCached(l - 1); h.fillPlan(l + 1) }},
		{"an uncached GhostPlan", func() { h.GhostPlan(l, true) }},
		{"a no-op parent re-link", func() { h.setParent(spare(l), spare(l).Parent) }},
		{"ClearLevelsFrom(l+1)", func() { h.ClearLevelsFrom(l + 1) }},
	} {
		before := serve()
		m.do()
		if after := serve(); after != before {
			t.Errorf("%s rebuilt level %d's plans", m.name, l)
		}
	}
	for _, m := range []struct {
		step
		restrictStays bool
	}{
		{step{"add/remove at l", func() { addRemove(l) }}, false},
		{step{"add/remove at l-1", func() { addRemove(l - 1) }}, true},
		{step{"re-link at l", func() { relink(l) }}, false},
		{step{"re-link at l-1", func() { relink(l - 1) }}, true},
		{step{"SortLevel(l)", func() { h.SortLevel(l) }}, false},
		{step{"SortLevel(l-1)", func() { h.SortLevel(l - 1) }}, true},
		{step{"ClearLevelsFrom(l) and re-adding its grids", func() {
			gs := slices.Clone(h.Grids(l))
			h.ClearLevelsFrom(l)
			for _, g := range gs {
				h.AddGrid(l, g.Box, g.Owner, g.Parent)
			}
		}}, false},
	} {
		before := serve()
		m.do()
		after := serve()
		if after.ghost == before.ghost || after.fill == before.fill || after.iface == before.iface {
			t.Errorf("%s left a plan of level %d cached", m.name, l)
		}
		if stayed := after.restrict == before.restrict; stayed != m.restrictStays {
			t.Errorf("%s: level %d's restriction plan stayed cached: %v, want %v", m.name, l, stayed, m.restrictStays)
		}
	}
}

// TestRestrictTransfersMutationBetweenPhases replays the interleaving
// that once left a stale restrict plan: a ghost plan served, a
// structural mutation, another phase's plan build, then the
// restriction's pair table. It must follow the mutation.
func TestRestrictTransfersMutationBetweenPhases(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{8, 8, 8}), 1, p.ID)
	_ = h.RestrictTransfers(1)
	_ = h.GhostPlanCached(1)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{8, 8, 8}, geom.Index{8, 8, 8}), 2, p.ID)
	_ = h.fillPlan(1)
	want := naivePairs(h, h.restrictScan(1))
	if len(want) != 2 {
		t.Fatalf("fixture: want two restriction pairs, got %v", want)
	}
	if got := h.RestrictTransfers(1); !slices.Equal(got, want) {
		t.Fatalf("stale restriction pairs survived the mutation: got %v, want %v", got, want)
	}
}

// TestCachedPlansConcurrentReaders hammers the cached plan getters
// from concurrent goroutines (the mpx-rank access pattern) — run
// under -race this pins the single-critical-section design.
func TestCachedPlansConcurrentReaders(t *testing.T) {
	h := randomHierarchy(rand.New(rand.NewSource(99)))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for l := 0; l <= h.MaxLevel; l++ {
					_ = h.GhostPlanCached(l)
					_, _ = h.GhostTransfers(l), h.RestrictTransfers(l)
					_ = h.fillPlan(l)
					if l > 0 {
						_ = h.restrictPlan(l)
						_ = h.interfacePlan(l)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCheckOracleDetectsCorruption pins that the -check=plan
// oracle actually fires: corrupt one cached message and the next
// serve must panic.
func TestPlanCheckOracleDetectsCorruption(t *testing.T) {
	h, _, _ := twoSlabHierarchy(t, false)
	if plan := h.GhostPlanCached(0); len(plan) == 0 {
		t.Fatal("expected a non-empty ghost plan")
	}
	h.planMu.Lock()
	h.plans[0].ghost[0].Bytes++
	h.planMu.Unlock()
	h.SetPlanCheck(true)
	defer func() {
		if recover() == nil {
			t.Fatal("plancheck served a corrupted plan without panicking")
		}
	}()
	h.GhostPlanCached(0)
}

// TestGhostPlanScratchAllocs pins the pooled-scratch property: a
// warmed indexed GhostPlan allocates only for the result slice, not
// per grid (the scan path allocated several box lists per grid).
func TestGhostPlanScratchAllocs(t *testing.T) {
	dom := geom.UnitCube(64)
	h := New(dom, 2, 0, 1, false, "q")
	for _, b := range (geom.BoxList{dom}).SplitEvenly(512) {
		h.AddGrid(0, b, 0, NoGrid)
	}
	h.GhostPlan(0, false) // warm the index and the scratch pool
	allocs := testing.AllocsPerRun(10, func() { h.GhostPlan(0, false) })
	if allocs > 64 {
		t.Fatalf("GhostPlan over 512 grids allocated %.0f times; want ≤ 64 (result growth only)", allocs)
	}
}
