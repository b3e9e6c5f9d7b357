package dlb

import (
	"fmt"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
)

// Traits declares which of the oracle-checked structural promises a
// policy makes. The invariant checker scopes its paper-specific rules
// with these, so the same differential harness can audit every policy
// without false positives:
//
//   - Colocation: children live in their parent's group, local-phase
//     migrations stay within a group, and only level-0 grids cross
//     groups (Sections 4.2–4.3). Structural rules — proper nesting,
//     owner ranges, ledger exactness, owners-alive — are always
//     checked and have no trait.
//   - GainGate: the global phase redistributes on a multi-group
//     healthy system only after running the Gain > γ·Cost gate of
//     Eq. 1 and records the compared values (GainCostValid).
//     Diffusion deliberately has no such gate.
//   - BalanceTolerance: after a local pass, each balanced set's
//     perf-normalised loads lie within one grid quantum of the
//     proportional target. SFC contiguity and knapsack's movement cap
//     both trade this away by design.
//
// No policy states its traits: each component below declares the
// promise it keeps, and a policy's traits are what its three
// components keep between them.
type Traits struct {
	Colocation       bool
	GainGate         bool
	BalanceTolerance bool
}

// placement is the first decision point: a new child grid goes to the
// least loaded processor, at its level, of its parent's group — so
// parent–child communication never crosses the WAN (Section 4.2) — or
// of the whole machine.
type placement bool

const (
	inParentGroup      placement = true
	leastLoadedOverall placement = false
)

// localPhase is the second decision point: how one level's grids are
// evened out over a processor set after each of the level's steps.
type localPhase struct {
	pack func(ctx *Context, level int, procs []int) []Migration
	// perGroup: pack runs once per group over the group's own
	// processors — "an overloaded processor can migrate its workload
	// to an underloaded processor of the same group only" — instead of
	// once over the whole machine.
	perGroup bool
	// tolerant: every set pack leaves behind is within one grid
	// quantum of the performance-proportional target.
	tolerant bool
}

// globalPhase is the third decision point: what happens between groups
// after a level-0 step.
type globalPhase struct {
	run func(p *policy, ctx *Context) GlobalDecision
	// gated: work crosses groups on a healthy multi-group system only
	// when Eq. 1's Gain > γ·Cost held, and the decision records what
	// was compared.
	gated bool
	// rooted: only level-0 grids cross groups, and their subtrees
	// follow them.
	rooted bool
}

var (
	greedyPerGroup = localPhase{pack: balanceOver, perGroup: true, tolerant: true}
	greedyOverall  = localPhase{pack: balanceOver, tolerant: true}
	cappedLPT      = localPhase{pack: lptPack, perGroup: true}

	gatedPairwise = globalPhase{run: gatedPairwiseGlobal, gated: true, rooted: true}
	evenLevel0    = globalPhase{run: evenLevel0Global}
)

// curveRuns is the local phase that deals each group's grids out as
// contiguous runs along the space-filling curve key orders them by.
func curveRuns(key func(geom.Index) uint64) localPhase {
	return localPhase{perGroup: true, pack: func(ctx *Context, level int, procs []int) []Migration {
		return sfcPartition(ctx, level, procs, key)
	}}
}

// diffusion is the global phase that lets work flow along every live
// inter-group link at once; order 1 is the first-order scheme, order 2
// the second-order one with flow memory.
func diffusion(order int) globalPhase {
	return globalPhase{rooted: true, run: func(p *policy, ctx *Context) GlobalDecision {
		return diffuse(p, ctx, order)
	}}
}

// policy is the one Balancer: a named choice at each of the three
// decision points.
type policy struct {
	name   string
	place  placement
	local  localPhase
	global globalPhase

	// flow is the second-order diffusion's memory, keyed by the
	// (lo, hi) group pair and signed positive lo→hi: the only state a
	// policy carries from one step to the next. NewPolicy hands every
	// run its own copy of the row, so it always starts empty.
	flow map[[2]int]float64
}

// policies is the whole zoo: deleting a policy is deleting its row.
// The first two rows are the paper's (its scheme for distributed
// systems and the ICPP 2001 baseline it is measured against); each of
// the others differs from the paper's scheme in exactly one column, so
// a comparison against it isolates that component.
var policies = []policy{
	{name: "distributed", place: inParentGroup, local: greedyPerGroup, global: gatedPairwise},
	{name: "parallel", place: leastLoadedOverall, local: greedyOverall, global: evenLevel0},
	{name: "sfc", place: inParentGroup, local: curveRuns(geom.Index.MortonKey), global: gatedPairwise},
	{name: "hilbert-sfc", place: inParentGroup, local: curveRuns(geom.Index.HilbertKey), global: gatedPairwise},
	{name: "knapsack", place: inParentGroup, local: cappedLPT, global: gatedPairwise},
	{name: "diffusion", place: inParentGroup, local: greedyPerGroup, global: diffusion(1)},
	{name: "diffusion-sos", place: inParentGroup, local: greedyPerGroup, global: diffusion(2)},
}

// aliases are the other names a row answers to: "paper" is the
// ablation vocabulary's name for the paper's scheme.
var aliases = map[string]string{"paper": "distributed"}

// Name implements Balancer.
func (p *policy) Name() string { return p.name + "-dlb" }

// PlaceChild implements Balancer.
func (p *policy) PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int {
	if p.place == inParentGroup {
		return leastLoadedProc(ctx, groupProcs(ctx, ctx.Sys.GroupOf(parent.Owner)), parent.Level+1)
	}
	return leastLoadedProc(ctx, allProcs(ctx), parent.Level+1)
}

// LocalBalance implements Balancer.
func (p *policy) LocalBalance(ctx *Context, level int) []Migration {
	if p.local.perGroup {
		return eachGroup(ctx, level, p.local.pack)
	}
	return p.local.pack(ctx, level, allProcs(ctx))
}

// GlobalBalance implements Balancer.
func (p *policy) GlobalBalance(ctx *Context) GlobalDecision {
	return p.global.run(p, ctx)
}

// traits derives what the policy promises from what its components
// keep: co-location needs all three to respect group boundaries, the
// gate is the global phase's alone, the tolerance the local phase's.
func (p *policy) traits() Traits {
	return Traits{
		Colocation:       p.place == inParentGroup && p.local.perGroup && p.global.rooted,
		GainGate:         p.global.gated,
		BalanceTolerance: p.local.tolerant,
	}
}

// row resolves a canonical name or alias to its table row.
func row(name string) *policy {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	for i := range policies {
		if policies[i].name == name {
			return &policies[i]
		}
	}
	return nil
}

// NewPolicy builds a fresh balancer for the named policy (canonical
// name or alias). Policies are built per run, not shared: the
// second-order diffusion carries flow memory.
func NewPolicy(name string) (Balancer, error) {
	r := row(name)
	if r == nil {
		return nil, fmt.Errorf("dlb: unknown policy %q (have %v)", name, PolicyNames())
	}
	p := *r
	return &p, nil
}

// PolicyNames returns the canonical policy names, sorted.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i := range policies {
		out[i] = policies[i].name
	}
	sort.Strings(out)
	return out
}

// PolicyTraits returns the named policy's invariant traits; ok is
// false for unknown names.
func PolicyTraits(name string) (Traits, bool) {
	r := row(name)
	if r == nil {
		return Traits{}, false
	}
	return r.traits(), true
}

// CanonicalPolicy resolves a name or alias to the canonical policy
// name; ok is false for unknown names.
func CanonicalPolicy(name string) (string, bool) {
	r := row(name)
	if r == nil {
		return "", false
	}
	return r.name, true
}
