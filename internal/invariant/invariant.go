// Package invariant implements the paper-invariant oracle: a
// pluggable checker the engine invokes after each structural phase
// (regrid, local balance, global redistribution, checkpoint, restore)
// via engine.Options.Invariants. Each check maps to a structural
// promise the paper makes:
//
//   - co-location: every child grid lives in its parent's group
//     (Section 4.2 — "the newly generated grids are always placed on
//     the processors within the same group as their parent grids").
//   - level-0-only global moves: only level-0 grids migrate between
//     groups (Section 4.3's boundary shift of Figure 6).
//   - gating: a global redistribution was invoked iff Gain > γ·Cost
//     (Eq. 1–4), judged on the very values the balancer compared.
//   - balance tolerance: after a balancing pass, perf-normalised
//     per-processor loads lie within one grid quantum of the
//     weight-proportional target (Section 4.1's n_A·p_A weighting).
//   - ledger-exact: the incremental load ledger equals a full
//     recomputation.
//   - owner sanity: every owner is a valid processor of the
//     machine.System; after a restore every owner is alive.
//
// The checker never panics: violations accumulate and surface through
// Err()/Violations, so a scenario harness can shrink a failing case.
package invariant

import (
	"fmt"
	"math"
	"strings"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
)

// Violation is one observed breach of an invariant.
type Violation struct {
	Phase  engine.Phase
	Step   int
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d, %s: %s: %s", v.Step, v.Phase, v.Rule, v.Detail)
}

// Checker accumulates violations across a run. Attach it with
// Options.Invariants = checker.Check. A checker serves one run at a
// time (the engine loop is single-threaded).
type Checker struct {
	// Colocation enables the distributed scheme's placement invariants
	// (parent–child co-location, within-group local migrations,
	// level-0-only global moves). The parallel scheme deliberately
	// violates them, so leave it false there.
	Colocation bool
	// GainGate enables the paper-specific gate bookkeeping rule: a
	// global redistribution on a healthy multi-group system must have
	// run (and recorded) the Eq. 1 gate. Policies that redistribute
	// without a gain/cost model — diffusion, the parallel baseline —
	// legitimately invoke without a record, so the rule is scoped off
	// for them. A decision that does carry GainCostValid is always
	// audited, whatever the policy.
	GainGate bool
	// BalanceTolerance enables the one-grid-quantum spread check after
	// local phases. SFC contiguity and knapsack's movement cap trade
	// this bound away by design.
	BalanceTolerance bool

	violations []Violation
	truncated  bool
}

const (
	// maxViolations bounds the accumulated list: a broken invariant
	// tends to fire every phase thereafter.
	maxViolations = 64
	// rejoinGraceSteps is the number of level-0 steps after a
	// processor's re-admission during which the balance-tolerance check
	// is suspended for its sets: the catch-up redistribution and the
	// following local phases need a boundary or two to absorb the
	// returned capacity.
	rejoinGraceSteps = 2
)

// NewForPolicy returns a checker scoped by the registered policy's
// traits, so every policy runs under the oracle with exactly the rules
// it promises to uphold. Unknown names fall back to the strict
// distributed-scheme rule set.
func NewForPolicy(policy string) *Checker {
	tr, ok := dlb.PolicyTraits(policy)
	if !ok {
		tr = dlb.Traits{Colocation: true, GainGate: true, BalanceTolerance: true}
	}
	return &Checker{
		Colocation:       tr.Colocation,
		GainGate:         tr.GainGate,
		BalanceTolerance: tr.BalanceTolerance,
	}
}

// Violations returns the accumulated violations.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when every check passed, else an error joining the
// accumulated violations.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(c.violations))
	for _, v := range c.violations {
		b.WriteString("\n  " + v.String())
	}
	if c.truncated {
		b.WriteString("\n  ... (further violations dropped)")
	}
	return fmt.Errorf("%s", b.String())
}

func (c *Checker) report(pi *engine.PhaseInfo, rule, format string, args ...interface{}) {
	if len(c.violations) >= maxViolations {
		c.truncated = true
		return
	}
	c.violations = append(c.violations, Violation{
		Phase: pi.Phase, Step: pi.Step, Rule: rule,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Check is the engine.Options.Invariants entry point.
func (c *Checker) Check(pi *engine.PhaseInfo) {
	c.checkStructure(pi)
	c.checkLedger(pi)
	c.checkRejoinClean(pi)
	switch pi.Phase {
	case engine.PhaseLocalBalance:
		if c.Colocation {
			c.checkLocalMigrationsInGroup(pi)
		}
		if c.BalanceTolerance {
			c.checkBalanceTolerance(pi)
		}
	case engine.PhaseGlobalBalance:
		c.checkGlobalDecision(pi)
	case engine.PhaseRestore:
		c.checkOwnersAlive(pi)
	}
}

// checkStructure verifies proper nesting, owner validity and (for the
// distributed scheme) parent–child group co-location — at every phase.
func (c *Checker) checkStructure(pi *engine.PhaseInfo) {
	r := pi.Runner
	h, sys := r.Hierarchy(), r.System()
	if err := h.CheckProperNesting(); err != nil {
		c.report(pi, "proper-nesting", "%v", err)
	}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			if g.Owner < 0 || g.Owner >= sys.NumProcs() {
				c.report(pi, "owner-range", "grid %d (level %d) owned by processor %d of %d",
					g.ID, l, g.Owner, sys.NumProcs())
				continue
			}
			if !c.Colocation || l == 0 {
				continue
			}
			p := h.Grid(g.Parent)
			if p == nil {
				c.report(pi, "co-location", "grid %d (level %d) has no parent grid %d",
					g.ID, l, g.Parent)
				continue
			}
			if sys.GroupOf(g.Owner) != sys.GroupOf(p.Owner) {
				c.report(pi, "co-location",
					"grid %d (level %d, proc %d, group %d) not in parent %d's group %d (proc %d)",
					g.ID, l, g.Owner, sys.GroupOf(g.Owner), p.ID, sys.GroupOf(p.Owner), p.Owner)
			}
		}
	}
}

// checkLedger verifies the incremental ledger against the full
// recompute oracle.
func (c *Checker) checkLedger(pi *engine.PhaseInfo) {
	if err := pi.Runner.Ledger().Verify(); err != nil {
		c.report(pi, "ledger-exact", "%v", err)
	}
}

// checkLocalMigrationsInGroup asserts the distributed scheme's local
// phase never crossed a group boundary.
func (c *Checker) checkLocalMigrationsInGroup(pi *engine.PhaseInfo) {
	sys := pi.Runner.System()
	for _, m := range pi.Migrations {
		if !sys.SameGroup(m.From, m.To) {
			c.report(pi, "local-in-group", "level-%d migration of grid %d crossed groups: proc %d (group %d) → proc %d (group %d)",
				pi.Level, m.Grid, m.From, sys.GroupOf(m.From), m.To, sys.GroupOf(m.To))
		}
	}
}

// checkGlobalDecision verifies the global phase's outcome: the Eq. 1
// gate on the balancer's own inputs, sane cost-model values, and (for
// the distributed scheme) that only level-0 grids crossed groups.
func (c *Checker) checkGlobalDecision(pi *engine.PhaseInfo) {
	d := pi.Decision
	if d == nil {
		c.report(pi, "gain-cost-gate", "global-balance hook fired without a decision")
		return
	}
	if d.GainCostValid {
		for _, v := range []struct {
			name string
			val  float64
		}{{"gain", d.Gain}, {"cost", d.Cost}, {"gamma", d.Gamma}, {"delta", d.Delta}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				c.report(pi, "cost-sane", "%s = %v (forecast=%v probe-failed=%v)",
					v.name, v.val, d.UsedForecast, d.ProbeFailed)
			}
		}
		if want := d.Gain > d.Gamma*d.Cost; d.Invoked != want {
			c.report(pi, "gain-cost-gate",
				"invoked=%v but Gain > γ·Cost is %v (gain=%g gamma=%g cost=%g)",
				d.Invoked, want, d.Gain, d.Gamma, d.Cost)
		}
	} else if d.Evaluated && d.Invoked && len(d.Quarantined) == 0 && !d.Degraded &&
		pi.Runner.System().NumGroups() >= 2 && c.GainGate {
		// A gated policy on a multi-group system must have run the gate
		// before invoking (the degenerate paths are excluded above).
		// Ungated policies — diffusion, the parallel baseline — are
		// scoped out via the GainGate trait.
		c.report(pi, "gain-cost-gate", "redistribution invoked without a recorded gate")
	}
	if c.Colocation {
		h, sys := pi.Runner.Hierarchy(), pi.Runner.System()
		for _, m := range d.Migrations {
			g := h.Grid(m.Grid)
			if g == nil {
				c.report(pi, "global-level0-only", "migrated grid %d no longer exists", m.Grid)
				continue
			}
			if g.Level != 0 && !sys.SameGroup(m.From, m.To) {
				c.report(pi, "global-level0-only",
					"level-%d grid %d crossed groups: proc %d → %d", g.Level, g.ID, m.From, m.To)
			}
		}
	}
}

// checkBalanceTolerance asserts the weight-proportional balance claim
// after a local phase: within every balanced processor set, the
// perf-normalised load spread at the balanced level is at most one
// grid quantum (the set's largest grid over its slowest processor) —
// the best any grid-granular balancer can do against the
// total·perf_p/Σperf targets of Section 4.1.
func (c *Checker) checkBalanceTolerance(pi *engine.PhaseInfo) {
	sys := pi.Runner.System()
	if c.Colocation {
		for grp := 0; grp < sys.NumGroups(); grp++ {
			c.checkSetBalance(pi, admittedSet(pi, sys.AliveInGroup(grp)), fmt.Sprintf("group %d", grp))
		}
	} else {
		c.checkSetBalance(pi, admittedSet(pi, sys.AliveProcs()), "all processors")
	}
}

// admittedSet intersects procs with the elastic-membership admission
// predicate: presumed-dead and rejoining processors are outside the
// balancer's reach, so the tolerance claim does not cover them.
// Identity when the run has no membership tracker.
func admittedSet(pi *engine.PhaseInfo, procs []int) []int {
	memb := pi.Runner.Membership()
	if memb == nil {
		return procs
	}
	out := make([]int, 0, len(procs))
	for _, p := range procs {
		if memb.Admitted(p) {
			out = append(out, p)
		}
	}
	return out
}

// inRejoinGrace reports whether any processor of the set completed a
// rejoin within the last rejoinGraceSteps level-0 steps: the catch-up
// machinery is still absorbing the returned capacity, so the balance
// tolerance is granted a short grace window (it must hold again once
// the window closes).
func (c *Checker) inRejoinGrace(pi *engine.PhaseInfo, procs []int) bool {
	memb := pi.Runner.Membership()
	if memb == nil {
		return false
	}
	for _, p := range procs {
		if rs := memb.ReadmitStep(p); rs >= 0 && pi.Step-rs < rejoinGraceSteps {
			return true
		}
	}
	return false
}

// checkRejoinClean asserts the rejoin protocol's core promise at every
// phase: a processor rejoining after a crash owns nothing until its
// re-admission completes (its grids were lost with it; re-population
// happens only through the catch-up redistribution or a recovery
// repartition, both of which complete the rejoin first). Presumed-dead
// rejoins keep their grids by design — quarantine semantics — and are
// not checked.
func (c *Checker) checkRejoinClean(pi *engine.PhaseInfo) {
	memb := pi.Runner.Membership()
	if memb == nil {
		return
	}
	sys, h := pi.Runner.System(), pi.Runner.Hierarchy()
	var pending map[int]bool
	for p := 0; p < sys.NumProcs(); p++ {
		if memb.State(p) == machine.StateRejoining && memb.Cause(p) == machine.CauseCrash {
			if pending == nil {
				pending = make(map[int]bool)
			}
			pending[p] = true
		}
	}
	if pending == nil {
		return
	}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			if pending[g.Owner] {
				c.report(pi, "rejoin-clean",
					"grid %d (level %d) owned by crash-rejoining processor %d before re-admission",
					g.ID, l, g.Owner)
			}
		}
	}
}

func (c *Checker) checkSetBalance(pi *engine.PhaseInfo, procs []int, label string) {
	if len(procs) < 2 {
		return
	}
	if c.inRejoinGrace(pi, procs) {
		return
	}
	r := pi.Runner
	sys, h := r.System(), r.Hierarchy()
	level := pi.Level
	inSet := make(map[int]bool, len(procs))
	for _, p := range procs {
		inSet[p] = true
	}
	load := make(map[int]float64, len(procs))
	var maxGrid, total float64
	for _, g := range h.Grids(level) {
		if !inSet[g.Owner] {
			continue
		}
		cells := float64(g.NumCells())
		load[g.Owner] += cells
		total += cells
		if cells > maxGrid {
			maxGrid = cells
		}
	}
	if total == 0 {
		return
	}
	minPerf := math.Inf(1)
	maxN, minN := math.Inf(-1), math.Inf(1)
	for _, p := range procs {
		perf := sys.Perf(p)
		if perf < minPerf {
			minPerf = perf
		}
		n := load[p] / perf
		maxN = math.Max(maxN, n)
		minN = math.Min(minN, n)
	}
	// One quantum of tolerance: the balancer cannot split loads finer
	// than its largest movable grid (balanceOver's overshoot break
	// bounds the residual spread by exactly this).
	tol := maxGrid/minPerf + 1e-9*(1+maxN)
	if maxN-minN > tol {
		c.report(pi, "balance-tolerance",
			"%s level %d: perf-normalised spread %g exceeds one grid quantum %g (max %g, min %g)",
			label, level, maxN-minN, tol, maxN, minN)
	}
}

// checkOwnersAlive asserts that a restore left no grid on a failed
// processor (repartition must have moved everything to survivors).
func (c *Checker) checkOwnersAlive(pi *engine.PhaseInfo) {
	r := pi.Runner
	sys, h := r.System(), r.Hierarchy()
	if sys.NumAlive() == 0 {
		return // every processor failed; nothing sensible remains
	}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			if g.Owner >= 0 && g.Owner < sys.NumProcs() && !sys.Alive(g.Owner) {
				c.report(pi, "owners-alive", "grid %d (level %d) owned by failed processor %d",
					g.ID, l, g.Owner)
			}
		}
	}
}
