package amr

import (
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
	if rest := geom.SubtractList(box, h.Boxes(l).Coarsen(r)); len(rest) > 0 {
		h.AddGrid(l, rest[0].Refine(r), owner, parent)
	}
}

// randomHierarchy builds a 2–3 level hierarchy with a random level-0
// tiling and random refined children, for plan-equivalence trials.
func randomHierarchy(rng *rand.Rand) *Hierarchy {
	dom := geom.UnitCube(32)
	h := New(dom, 2, 2, 1, false, "q")
	for _, b := range (geom.BoxList{dom}).SplitEvenly(4 + rng.Intn(16)) {
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

// RestrictPlanCached returns RestrictPlan(l, false) from the cache
// entry RestrictTransfers aggregates.
func (h *Hierarchy) RestrictPlanCached(l int) []Message {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planMsg).restrict
}

// servePlans pulls every cached plan kind at every level, so the
// -plancheck oracle (when armed) verifies each against its scan
// baseline.
func servePlans(h *Hierarchy) {
	for l := 0; l <= h.MaxLevel; l++ {
		h.GhostPlanCached(l)
		h.RestrictPlanCached(l)
		h.GhostTransfers(l)
		h.RestrictTransfers(l)
		h.fillPlan(l)
		h.restrictDataPlan(l)
		if l > 0 {
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
// the -plancheck oracle panics on the first divergence, and the
// scratch builders are compared directly for both dropLocal variants.
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
					if got, want := h.GhostPlan(l, dl), h.GhostPlanScan(l, dl); !msgsEqual(got, want) {
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
// them; each of the five structural mutations at l or l−1 replaces
// them.
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
		ghost, restrict *Message
		fill            *fillDest
		iface           *interfacePlan
	}
	serve := func() served {
		return served{&h.GhostPlanCached(l)[0], &h.RestrictPlanCached(l)[0], &h.fillPlan(l)[0], h.interfacePlan(l)}
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
	for _, m := range []step{
		{"add/remove at l", func() { addRemove(l) }},
		{"add/remove at l-1", func() { addRemove(l - 1) }},
		{"re-link at l", func() { relink(l) }},
		{"re-link at l-1", func() { relink(l - 1) }},
		{"SortLevel(l)", func() { h.SortLevel(l) }},
		{"SortLevel(l-1)", func() { h.SortLevel(l - 1) }},
		{"ClearLevelsFrom(l) and re-adding its grids", func() {
			gs := slices.Clone(h.Grids(l))
			h.ClearLevelsFrom(l)
			for _, g := range gs {
				h.AddGrid(l, g.Box, g.Owner, g.Parent)
			}
		}},
	} {
		before := serve()
		m.do()
		after := serve()
		if after.ghost == before.ghost || after.restrict == before.restrict ||
			after.fill == before.fill || after.iface == before.iface {
			t.Errorf("%s left a plan of level %d cached", m.name, l)
		}
	}
}

// TestRestrictPlanCachedMutationBetweenPhases is the regression test
// for the plan-cache race: RestrictPlanCached used to run as two
// critical sections — a GhostPlanCached call, then a re-lock to read
// the restrict plan — so a structural mutation plus a concurrent
// plan build landing in the window left it returning a nil (or
// stale) restrict plan. Both plans are now built under one critical
// section on a stable cache entry; replaying the old interleaving
// must yield a fresh, coherent restrict plan.
func TestRestrictPlanCachedMutationBetweenPhases(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{8, 8, 8}), 1, p.ID)

	_ = h.GhostPlanCached(1) // phase one of the old two-phase protocol
	// A mutation lands in the window between the phases...
	h.AddGrid(1, geom.BoxFromShape(geom.Index{8, 8, 8}, geom.Index{8, 8, 8}), 0, p.ID)
	// ...and so does another phase's plan build (the old code replaced
	// the cache entry here, wiping the restrict plan).
	_ = h.fillPlan(1)

	// The old phase-two read: the raw cache entry must already hold a
	// restrict plan coherent with the post-mutation structure.
	h.planMu.Lock()
	got := h.plans[1].restrict
	h.planMu.Unlock()
	want := h.RestrictPlan(1, false)
	if got == nil {
		t.Fatal("cache entry lost its restrict plan across the mutation window")
	}
	if !msgsEqual(got, want) {
		t.Fatalf("stale restrict plan survived the mutation: got %v, want %v", got, want)
	}
	if !msgsEqual(h.RestrictPlanCached(1), want) {
		t.Fatal("RestrictPlanCached diverged from a fresh RestrictPlan")
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
					g := h.GhostPlanCached(l)
					r := h.RestrictPlanCached(l)
					_, _ = g, r
					_, _ = h.GhostTransfers(l), h.RestrictTransfers(l)
					_ = h.fillPlan(l)
					_ = h.restrictDataPlan(l)
					if l > 0 {
						_ = h.interfacePlan(l)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCheckOracleDetectsCorruption pins that the -plancheck
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
