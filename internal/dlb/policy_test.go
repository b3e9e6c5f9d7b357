package dlb

import (
	"reflect"
	"sort"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
)

func TestPolicyRegistryNamesAndAliases(t *testing.T) {
	names := PolicyNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("PolicyNames not sorted: %v", names)
	}
	want := map[string]string{
		"distributed":   "distributed-dlb",
		"parallel":      "parallel-dlb",
		"sfc":           "sfc-dlb",
		"hilbert-sfc":   "hilbert-sfc-dlb",
		"diffusion":     "diffusion-dlb",
		"diffusion-sos": "diffusion-sos-dlb",
		"knapsack":      "knapsack-dlb",
	}
	if len(names) != len(want) {
		t.Fatalf("PolicyNames = %v, want %d policies", names, len(want))
	}
	for reg, balName := range want {
		b, err := NewPolicy(reg)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", reg, err)
		}
		if b.Name() != balName {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", reg, b.Name(), balName)
		}
	}
	// "paper" is an alias of the distributed scheme, not a separate
	// canonical name.
	b, err := NewPolicy("paper")
	if err != nil || b.Name() != "distributed-dlb" {
		t.Fatalf("alias paper: %v, %v", b, err)
	}
	if c, ok := CanonicalPolicy("paper"); !ok || c != "distributed" {
		t.Fatalf("CanonicalPolicy(paper) = %q, %v", c, ok)
	}
	if _, err := NewPolicy("no-such-policy"); err == nil {
		t.Fatal("NewPolicy accepted an unknown name")
	}
	if _, ok := PolicyTraits("no-such-policy"); ok {
		t.Fatal("PolicyTraits accepted an unknown name")
	}
}

// TestPolicyTraitsScopeRules pins what the table's seven rows and the
// "paper" alias derive to: the report name, and the traits the
// hand-written registry used to state per policy. The traits are no
// longer written anywhere else, so a component that changes a promise,
// or a row that swaps a component, shows up here.
func TestPolicyTraitsScopeRules(t *testing.T) {
	cases := []struct {
		name, report string
		want         Traits
	}{
		{"distributed", "distributed-dlb", Traits{Colocation: true, GainGate: true, BalanceTolerance: true}},
		{"paper", "distributed-dlb", Traits{Colocation: true, GainGate: true, BalanceTolerance: true}},
		{"parallel", "parallel-dlb", Traits{BalanceTolerance: true}},
		{"sfc", "sfc-dlb", Traits{Colocation: true, GainGate: true}},
		{"hilbert-sfc", "hilbert-sfc-dlb", Traits{Colocation: true, GainGate: true}},
		{"knapsack", "knapsack-dlb", Traits{Colocation: true, GainGate: true}},
		{"diffusion", "diffusion-dlb", Traits{Colocation: true, BalanceTolerance: true}},
		{"diffusion-sos", "diffusion-sos-dlb", Traits{Colocation: true, BalanceTolerance: true}},
	}
	if len(policies) != len(cases)-1 {
		t.Fatalf("the table has %d rows, the pin %d", len(policies), len(cases)-1)
	}
	for _, c := range cases {
		got, ok := PolicyTraits(c.name)
		if !ok || got != c.want {
			t.Errorf("PolicyTraits(%q) = %+v, %v; want %+v", c.name, got, ok, c.want)
		}
		p := mustPolicy(c.name)
		if p.Name() != c.report || p.traits() != c.want {
			t.Errorf("NewPolicy(%q) = %q %+v; want %q %+v", c.name, p.Name(), p.traits(), c.report, c.want)
		}
	}
	// The scenario fuzz byte and the benchmark's per-policy layer names
	// index this list: same names, same order.
	want := []string{"diffusion", "diffusion-sos", "distributed", "hilbert-sfc", "knapsack", "parallel", "sfc"}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("PolicyNames() = %v, want %v", got, want)
	}
}

// TestPolicyFactoriesAreFresh pins the registry contract that matters
// for stateful policies: every NewPolicy call returns an independent
// instance, so one run's SOS flow memory can never leak into another.
func TestPolicyFactoriesAreFresh(t *testing.T) {
	a, _ := NewPolicy("diffusion-sos")
	b, _ := NewPolicy("diffusion-sos")
	da, db := a.(*policy), b.(*policy)
	if da == db || da == row("diffusion-sos") {
		t.Fatal("NewPolicy returned a shared instance for a stateful policy")
	}
	da.flow = map[[2]int]float64{{0, 1}: 7}
	if db.flow != nil || row("diffusion-sos").flow != nil {
		t.Fatal("flow memory leaked between instances")
	}
}

func TestPolicyDiffusionBalancesGroupsWithWholeGrids(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// Four level-0 slabs, all owned by group 0 (procs 0 and 1).
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 1, 1})
	ctx := ctxFor(t, sys, h)
	before := len(h.Grids(0))

	b, _ := NewPolicy("diffusion")
	d := b.GlobalBalance(ctx)
	if !d.Evaluated {
		t.Fatal("unbounded imbalance did not trigger an evaluation")
	}
	if d.GainCostValid {
		t.Fatal("diffusion must not claim a Gain/Cost gate record")
	}
	if !d.Invoked || len(d.Migrations) == 0 {
		t.Fatalf("expected migrations, got %+v", d)
	}
	// Integer rounding: whole grids only — the grid count is unchanged
	// (the paper scheme's splitTowards path would have grown it).
	if after := len(h.Grids(0)); after != before {
		t.Fatalf("diffusion split a grid: %d grids -> %d", before, after)
	}
	for _, m := range d.Migrations {
		if g := h.Grid(m.Grid); g.Level != 0 {
			t.Fatalf("non-level-0 grid crossed groups: %+v", m)
		}
	}
	// The flow is (z0-z1)/2 · h = half the surplus: both groups now
	// hold work.
	g0, g1 := groupCells(ctx, 0, 0), groupCells(ctx, 0, 1)
	if g0 == 0 || g1 == 0 {
		t.Fatalf("diffusion over/under-shot: group cells %v / %v", g0, g1)
	}
	if g0 != g1 {
		t.Errorf("symmetric system should balance exactly: %v vs %v", g0, g1)
	}
}

func TestPolicyDiffusionBelowTriggerDoesNothing(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// Already balanced across the groups.
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 1, 2, 3})
	ctx := ctxFor(t, sys, h)
	b, _ := NewPolicy("diffusion")
	d := b.GlobalBalance(ctx)
	if d.Evaluated || d.Invoked || len(d.Migrations) != 0 {
		t.Fatalf("balanced system should be left alone: %+v", d)
	}
}

func TestPolicyDiffusionSOSKeepsFlowMemory(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 1, 1})
	ctx := ctxFor(t, sys, h)
	b := mustPolicy("diffusion-sos")
	if b.Name() != "diffusion-sos-dlb" {
		t.Fatalf("name = %q", b.Name())
	}
	d := b.GlobalBalance(ctx)
	if !d.Invoked {
		t.Fatalf("expected an SOS sweep to move work: %+v", d)
	}
	if len(b.flow) == 0 {
		t.Fatal("second-order scheme recorded no flow memory")
	}
	// First-order leaves no memory behind.
	f := mustPolicy("diffusion")
	f.GlobalBalance(ctxFor(t, sys, slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 1, 1})))
	if f.flow != nil {
		t.Fatal("first-order scheme must stay stateless")
	}
}

func TestPolicyDiffusionDegradesWhenIsolated(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 1, 1})
	ctx := ctxFor(t, sys, h)
	ctx.Quarantined = func(group int, t float64) bool { return group == 1 }
	b, _ := NewPolicy("diffusion")
	d := b.GlobalBalance(ctx)
	if !d.Degraded {
		t.Fatalf("one reachable group should degrade to local-only: %+v", d)
	}
	for _, m := range d.Migrations {
		if !sys.SameGroup(m.From, m.To) {
			t.Fatalf("degraded sweep crossed groups: %+v", m)
		}
	}
}

func TestPolicyKnapsackPacksWithinGroups(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// Uneven slabs, everything on proc 0 of group 0 and proc 2 of
	// group 1.
	h := slabHierarchy(8, []int{3, 1, 2, 2}, []int{0, 0, 2, 2})
	ctx := ctxFor(t, sys, h)
	migs := mustPolicy("knapsack").LocalBalance(ctx, 0)
	if len(migs) == 0 {
		t.Fatal("expected migrations")
	}
	for _, m := range migs {
		if !sys.SameGroup(m.From, m.To) {
			t.Fatalf("knapsack local pass crossed groups: %+v", m)
		}
	}
	// LPT bound: within each group, the spread is at most the largest
	// grid.
	pc := procCells(ctx, 0)
	if spread := pc[0] - pc[1]; spread < -192 || spread > 192 {
		t.Errorf("group 0 spread %v exceeds the largest grid", spread)
	}
	if pc[2] != pc[3] {
		t.Errorf("group 1 equal slabs should split evenly: %v vs %v", pc[2], pc[3])
	}
}

// TestPolicyKnapsackMovementCapBinds pins the movement cap, a constant:
// one pass migrates at most half the set's grid bytes.
func TestPolicyKnapsackMovementCapBinds(t *testing.T) {
	sys := machine.WanPair(3, nil)
	// Group 0's three equal slabs all sit on proc 0. An uncapped LPT
	// pass would ship one to each idle processor — two thirds of the
	// set's bytes. The second move would cross the half, so it is
	// refused and that grid stays where it is.
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 0, 3})
	ctx := ctxFor(t, sys, h)
	var setBytes int64
	for _, g := range h.Grids(0)[:3] {
		setBytes += g.Bytes(len(h.Fields))
	}
	migs := mustPolicy("knapsack").LocalBalance(ctx, 0)
	if len(migs) != 1 {
		t.Fatalf("cap should allow exactly one move, got %d: %+v", len(migs), migs)
	}
	if moved := migratedBytes(migs); 2*moved > setBytes {
		t.Errorf("moved %d of %d bytes: more than half", moved, setBytes)
	}
	if pc := procCells(ctx, 0); pc[0] != 256 || pc[1] != 128 || pc[2] != 0 {
		t.Errorf("layout after the capped pass: %v", pc)
	}
	// The next pass has a fresh budget and finishes the job.
	if migs := (mustPolicy("knapsack")).LocalBalance(ctx, 0); len(migs) != 1 {
		t.Fatalf("second pass should move the remaining grid, got %+v", migs)
	}
}

func TestPolicyHilbertSFCContiguousRuns(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := amr.New(geom.UnitCube(8), 2, 1, 1, false, "q")
	for x := 0; x < 8; x += 4 {
		for y := 0; y < 8; y += 4 {
			for z := 0; z < 8; z += 2 {
				h.AddGrid(0, geom.BoxFromShape(geom.Index{x, y, z}, geom.Index{4, 4, 2}), 0, amr.NoGrid)
			}
		}
	}
	ctx := ctxFor(t, sys, h)
	s := mustPolicy("hilbert-sfc")
	migs := s.LocalBalance(ctx, 0)
	if len(migs) == 0 {
		t.Fatal("expected migrations")
	}
	for _, m := range migs {
		if !sys.SameGroup(m.From, m.To) {
			t.Fatalf("hilbert-sfc local balance crossed groups: %+v", m)
		}
	}
	pc := procCells(ctx, 0)
	if pc[0] != pc[1] {
		t.Errorf("hilbert-sfc balance uneven: %v vs %v", pc[0], pc[1])
	}
	// Each processor owns one contiguous run of the Hilbert order.
	grids := append([]*amr.Grid(nil), h.Grids(0)...)
	sort.Slice(grids, func(i, j int) bool {
		return curveKey(geom.Index.HilbertKey, grids[i].Box) < curveKey(geom.Index.HilbertKey, grids[j].Box)
	})
	switches := 0
	for i := 1; i < len(grids); i++ {
		if grids[i].Owner != grids[i-1].Owner {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("expected one owner switch along the Hilbert curve, got %d", switches)
	}
}
