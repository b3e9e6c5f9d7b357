package dlb

import (
	"testing"

	"samrdlb/internal/machine"
)

// quarantineOf returns a Quarantined callback that marks the given
// groups unreachable at all times.
func quarantineOf(groups ...int) func(int, float64) bool {
	set := map[int]bool{}
	for _, g := range groups {
		set[g] = true
	}
	return func(g int, t float64) bool { return set[g] }
}

func TestGlobalBalanceSkipsQuarantinedGroup(t *testing.T) {
	// Three sites of two processors. Group 1 holds by far the most
	// work but is quarantined: the global phase must pick donor and
	// receiver among groups 0 and 2 only.
	sys := machine.MultiSite([]int{2, 2, 2}, nil)
	// Slabs: g0 (procs 0,1) heavy, g1 (procs 2,3) heaviest but cut
	// off, g2 (procs 4,5) light.
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 2, 0, 4})
	ctx := ctxFor(t, sys, h)
	ctx.Quarantined = quarantineOf(1)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if len(d.Quarantined) != 1 || d.Quarantined[0] != 1 {
		t.Fatalf("quarantined groups = %v, want [1]", d.Quarantined)
	}
	if d.Degraded {
		t.Fatal("two healthy groups remain; must not degrade")
	}
	if !d.Invoked {
		t.Fatalf("expected redistribution between healthy groups: %+v", d)
	}
	for _, m := range d.Migrations {
		if sys.GroupOf(m.From) == 1 || sys.GroupOf(m.To) == 1 {
			t.Errorf("migration %+v touches the quarantined group", m)
		}
		if sys.GroupOf(m.From) != 0 || sys.GroupOf(m.To) != 2 {
			t.Errorf("migration %+v should flow from group 0 to group 2", m)
		}
	}
}

func TestGlobalBalanceDegradesToLocalOnly(t *testing.T) {
	// Two groups, one quarantined: fewer than two reachable groups
	// means no global phase — both groups even out internally and
	// nothing crosses the group boundary.
	sys := machine.WanPair(2, nil)
	// Group 0: everything on proc 0 (proc 1 idle); group 1: everything
	// on proc 2 (proc 3 idle).
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 2, 2})
	ctx := ctxFor(t, sys, h)
	ctx.Quarantined = quarantineOf(1)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Degraded {
		t.Fatalf("expected degraded local-only mode: %+v", d)
	}
	if d.Evaluated {
		t.Error("degraded mode must not run the gain/cost evaluation")
	}
	if len(d.Migrations) == 0 {
		t.Fatal("both groups are internally imbalanced; local balancing should move grids")
	}
	for _, m := range d.Migrations {
		if sys.GroupOf(m.From) != sys.GroupOf(m.To) {
			t.Errorf("migration %+v crossed groups during quarantine", m)
		}
	}
	// The quarantined group still balances internally (cut off, not dead).
	var g1Moves int
	for _, m := range d.Migrations {
		if sys.GroupOf(m.From) == 1 {
			g1Moves++
		}
	}
	if g1Moves == 0 {
		t.Error("quarantined group should still balance locally")
	}
}

func TestGlobalBalanceZeroWorkNoPanic(t *testing.T) {
	// max(W_group)=0 over the healthy groups: the evaluation must
	// neither divide by zero nor invoke redistribution.
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, nil, nil) // empty hierarchy, zero work
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	ctx.ForceEval = true // bypass the imbalance trigger to reach the guard
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if d.Invoked {
		t.Errorf("zero-work system must not redistribute: %+v", d)
	}
	if len(d.Migrations) != 0 {
		t.Errorf("unexpected migrations: %v", d.Migrations)
	}
}

func TestGlobalBalanceAllWorkQuarantinedNoPanic(t *testing.T) {
	// Every cell is owned by the quarantined group: the healthy groups
	// see max(W)=0 and must settle without dividing by zero or
	// selecting the quarantined group.
	sys := machine.MultiSite([]int{2, 2, 2}, nil)
	h := slabHierarchy(8, []int{8}, []int{2}) // all work in group 1
	ctx := ctxFor(t, sys, h)
	ctx.Quarantined = quarantineOf(1)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	ctx.ForceEval = true
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if d.Invoked {
		t.Errorf("no reachable work; must not redistribute: %+v", d)
	}
	for _, m := range d.Migrations {
		t.Errorf("unexpected migration %+v", m)
	}
}

func TestGlobalBalanceOneHealthyGroupDegrades(t *testing.T) {
	// Three groups, two quarantined: one reachable group is not enough
	// for a global phase.
	sys := machine.MultiSite([]int{2, 2, 2}, nil)
	h := slabHierarchy(8, []int{4, 4}, []int{0, 0})
	ctx := ctxFor(t, sys, h)
	ctx.Quarantined = quarantineOf(1, 2)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Degraded {
		t.Fatalf("one healthy group must degrade to local-only: %+v", d)
	}
	if len(d.Quarantined) != 2 {
		t.Errorf("quarantined = %v, want two groups", d.Quarantined)
	}
	for _, m := range d.Migrations {
		if sys.GroupOf(m.From) != sys.GroupOf(m.To) {
			t.Errorf("migration %+v crossed groups", m)
		}
	}
}
