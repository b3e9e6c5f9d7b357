package invariant_test

import (
	"math"
	"strings"
	"testing"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/invariant"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

// cleanRun executes a short distributed run with the checker attached
// and returns the runner for post-hoc tampering.
func cleanRun(t *testing.T, c *invariant.Checker) *engine.Runner {
	t.Helper()
	r := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), engine.Options{
		Steps: 2, MaxLevel: 1, Invariants: c.Check,
	})
	r.Run()
	return r
}

func TestCheckerCleanRunHasNoViolations(t *testing.T) {
	c := invariant.NewForPolicy("distributed")
	cleanRun(t, c)
	if err := c.Err(); err != nil {
		t.Fatalf("clean run violated invariants: %v", err)
	}
}

// TestCheckerCatchesMisplacedChild hand-breaks co-location after a
// clean run and feeds the state back through the checker.
func TestCheckerCatchesMisplacedChild(t *testing.T) {
	c := invariant.NewForPolicy("distributed")
	r := cleanRun(t, c)

	h, sys := r.Hierarchy(), r.System()
	grids := h.Grids(1)
	if len(grids) == 0 {
		t.Fatal("run produced no level-1 grids")
	}
	victim := grids[0]
	parent := h.Grid(victim.Parent)
	for q := 0; q < sys.NumProcs(); q++ {
		if sys.GroupOf(q) != sys.GroupOf(parent.Owner) {
			h.SetOwner(victim, q)
			break
		}
	}

	c.Check(&engine.PhaseInfo{Phase: engine.PhaseRegrid, Step: 3, Runner: r})
	found := false
	for _, v := range c.Violations() {
		if v.Rule == "co-location" {
			found = true
			if v.Step != 3 || v.Phase != engine.PhaseRegrid {
				t.Errorf("violation context wrong: %+v", v)
			}
			if !strings.Contains(v.String(), "co-location") {
				t.Errorf("String() misses the rule: %q", v.String())
			}
		}
	}
	if !found {
		t.Fatalf("misplaced child not caught; violations: %v", c.Violations())
	}
	if c.Err() == nil {
		t.Fatal("Err() must be non-nil after a violation")
	}
}

// TestCheckerGateAndCostRules feeds synthetic global decisions through
// the checker: an Invoked flag contradicting the recorded Gain/γ·Cost
// comparison, and a NaN cost, must each be flagged.
func TestCheckerGateAndCostRules(t *testing.T) {
	c := invariant.NewForPolicy("distributed")
	r := cleanRun(t, c)
	before := len(c.Violations())

	c.Check(&engine.PhaseInfo{
		Phase: engine.PhaseGlobalBalance, Step: 5, Runner: r,
		Decision: &dlb.GlobalDecision{
			GainCostValid: true, Gain: 1, Gamma: 2, Cost: 10, Invoked: true,
		},
	})
	c.Check(&engine.PhaseInfo{
		Phase: engine.PhaseGlobalBalance, Step: 6, Runner: r,
		Decision: &dlb.GlobalDecision{
			GainCostValid: true, Gain: 1, Gamma: 2, Cost: math.NaN(),
		},
	})
	var gate, sane bool
	for _, v := range c.Violations()[before:] {
		switch v.Rule {
		case "gain-cost-gate":
			gate = true
		case "cost-sane":
			sane = true
		}
	}
	if !gate {
		t.Error("contradictory Invoked flag not flagged by gain-cost-gate")
	}
	if !sane {
		t.Error("NaN cost not flagged by cost-sane")
	}
}

// TestCheckerTruncatesViolationFlood: a broken invariant fires every
// phase; the report must cap and say so.
func TestCheckerTruncatesViolationFlood(t *testing.T) {
	c := invariant.NewForPolicy("distributed")
	r := cleanRun(t, c)

	h, sys := r.Hierarchy(), r.System()
	grids := h.Grids(1)
	if len(grids) == 0 {
		t.Fatal("run produced no level-1 grids")
	}
	parent := h.Grid(grids[0].Parent)
	for q := 0; q < sys.NumProcs(); q++ {
		if sys.GroupOf(q) != sys.GroupOf(parent.Owner) {
			h.SetOwner(grids[0], q)
			break
		}
	}
	for i := 0; i < 70; i++ {
		c.Check(&engine.PhaseInfo{Phase: engine.PhaseRegrid, Step: i, Runner: r})
	}
	if got := len(c.Violations()); got != 64 {
		t.Fatalf("violations = %d, want the cap of 64", got)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("capped report must mention dropped violations: %v", err)
	}
}

// TestCheckerCleanAcrossRejoins is the acceptance scenario under the
// oracle: every group loses and regains a processor to bounded outage
// windows, and the full run — degradation, recovery, rejoin, catch-up
// — must hold every invariant including the rejoin rules.
func TestCheckerCleanAcrossRejoins(t *testing.T) {
	// Boundary clocks from a schedule-free run (empty schedule keeps
	// the checkpoint charging identical) place the outage windows.
	empty, err := fault.NewSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	var bt []float64
	engine.New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), engine.Options{
		Steps: 8, MaxLevel: 1, Faults: empty,
		AfterStep: func(step int, rr *engine.Runner) { bt = append(bt, rr.Clock().Now()) },
	}).Run()

	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.ProcFailure, Proc: 1,
			Start: (bt[0] + bt[1]) / 2, End: (bt[2] + bt[3]) / 2},
		fault.Event{Kind: fault.ProcFailure, Proc: 5,
			Start: (bt[1] + bt[2]) / 2, End: (bt[3] + bt[4]) / 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	c := invariant.NewForPolicy("distributed")
	r := engine.New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), engine.Options{
		Steps: 8, MaxLevel: 1, Faults: sched, Invariants: c.Check,
	})
	res := r.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("rejoin run violated invariants: %v", err)
	}
	if res.Rejoins != 2 {
		t.Fatalf("setup: both procs must rejoin, got %d", res.Rejoins)
	}
}

// TestCheckerScopesByPolicyTraits pins the NewForPolicy mapping onto
// the registry's traits: each policy gets exactly the rules it
// promises, unknown names fall back to the strict set, and the legacy
// New(colocation) constructor keeps its historical two-scheme scoping.
func TestCheckerScopesByPolicyTraits(t *testing.T) {
	for _, name := range dlb.PolicyNames() {
		tr, ok := dlb.PolicyTraits(name)
		if !ok {
			t.Fatalf("registered policy %q has no traits", name)
		}
		c := invariant.NewForPolicy(name)
		if c.Colocation != tr.Colocation || c.GainGate != tr.GainGate || c.BalanceTolerance != tr.BalanceTolerance {
			t.Errorf("NewForPolicy(%q) = {%v %v %v}, want traits %+v",
				name, c.Colocation, c.GainGate, c.BalanceTolerance, tr)
		}
	}
	if c := invariant.NewForPolicy("no-such-policy"); !c.Colocation || !c.GainGate || !c.BalanceTolerance {
		t.Errorf("unknown policy must fall back to the strict rule set, got %+v", c)
	}
}

// TestCheckerGateRuleScopedOffForUngatedPolicies is the regression for
// the latent paper-scheme assumption: diffusion redistributes on a
// healthy multi-group system without ever running the Eq. 1 gate, so a
// decision with Evaluated && Invoked && !GainCostValid is legitimate
// under its checker — while the same decision under the distributed
// scheme's checker remains a violation.
func TestCheckerGateRuleScopedOffForUngatedPolicies(t *testing.T) {
	r := cleanRun(t, invariant.NewForPolicy("distributed"))
	ungatedDecision := func() *engine.PhaseInfo {
		return &engine.PhaseInfo{
			Phase: engine.PhaseGlobalBalance, Step: 5, Runner: r,
			Decision: &dlb.GlobalDecision{Evaluated: true, Invoked: true},
		}
	}

	diff := invariant.NewForPolicy("diffusion")
	diff.Check(ungatedDecision())
	for _, v := range diff.Violations() {
		if v.Rule == "gain-cost-gate" {
			t.Fatalf("diffusion checker flagged a legitimate ungated redistribution: %v", v)
		}
	}

	strict := invariant.NewForPolicy("distributed")
	strict.Check(ungatedDecision())
	found := false
	for _, v := range strict.Violations() {
		if v.Rule == "gain-cost-gate" {
			found = true
		}
	}
	if !found {
		t.Fatal("distributed checker must still flag an ungated redistribution")
	}

	// A decision that does carry a gate record is audited under every
	// policy: a contradictory Invoked flag stays a violation even for
	// diffusion's checker.
	diff2 := invariant.NewForPolicy("diffusion")
	diff2.Check(&engine.PhaseInfo{
		Phase: engine.PhaseGlobalBalance, Step: 6, Runner: r,
		Decision: &dlb.GlobalDecision{
			GainCostValid: true, Gain: 1, Gamma: 2, Cost: 10, Invoked: true,
		},
	})
	found = false
	for _, v := range diff2.Violations() {
		if v.Rule == "gain-cost-gate" {
			found = true
		}
	}
	if !found {
		t.Fatal("a recorded gate must be audited regardless of policy traits")
	}
}

// TestCheckerBalanceToleranceScopedOff: policies that trade the
// one-quantum bound away (knapsack's movement cap, SFC contiguity)
// must not be held to it, while their structural rules stay on.
func TestCheckerBalanceToleranceScopedOff(t *testing.T) {
	for _, name := range []string{"knapsack", "sfc", "hilbert-sfc"} {
		c := invariant.NewForPolicy(name)
		if c.BalanceTolerance {
			t.Errorf("%s: balance-tolerance should be scoped off", name)
		}
		if !c.Colocation {
			t.Errorf("%s: structural co-location rule must stay on", name)
		}
	}
}

// TestCheckerCatchesDirtyRejoin hand-assigns a grid to a processor
// that is rejoining after a crash — exactly the state the rejoin-clean
// rule exists to forbid (a crash loses the proc's grids; nothing may
// be placed on it before re-admission completes).
func TestCheckerCatchesDirtyRejoin(t *testing.T) {
	empty, err := fault.NewSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	c := invariant.NewForPolicy("distributed")
	r := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), engine.Options{
		Steps: 2, MaxLevel: 1, Faults: empty, Invariants: c.Check,
	})
	r.Run()
	before := len(c.Violations())

	grids := r.Hierarchy().Grids(1)
	if len(grids) == 0 {
		t.Fatal("run produced no level-1 grids")
	}
	p := grids[0].Owner
	r.Membership().Crash(p)
	r.Membership().BeginRejoin(p)
	c.Check(&engine.PhaseInfo{Phase: engine.PhaseRegrid, Step: 3, Runner: r})

	found := false
	for _, v := range c.Violations()[before:] {
		if v.Rule == "rejoin-clean" {
			found = true
		}
	}
	if !found {
		t.Fatalf("grid on a crash-rejoining proc not caught; violations: %v", c.Violations()[before:])
	}
}
