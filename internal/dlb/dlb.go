// Package dlb implements the paper's dynamic load balancing as three
// decisions the SAMR integration loop asks for at the points of its
// Figures 4 and 5:
//
//   - placement: which processor a newly created child grid goes to;
//   - the local phase: how one level's grids are evened out after each
//     of that level's time steps;
//   - the global phase: what happens between processor groups after
//     each level-0 time step.
//
// A policy is one choice for each (policy.go holds the table). The
// paper's scheme for distributed systems places children in their
// parent's group, evens each group out on its own, and moves level-0
// grids between groups only when the heuristic gain exceeds γ times
// the measured redistribution cost (Eqs. 1–4). Its baseline, the
// parallel scheme of Lan et al. (ICPP 2001), makes all three choices
// over the whole machine, ignoring group structure and network
// heterogeneity. The remaining rows swap one component for an
// alternative from the related work.
//
// Every component operates on the amr.Hierarchy's ownership fields and
// reports the migrations it performs; the engine charges virtual time
// for the implied data motion.
package dlb

import (
	"math"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/load"
	"samrdlb/internal/machine"
	"samrdlb/internal/netsim"
)

// Context is the state a balancer works against.
type Context struct {
	Sys  *machine.System
	H    *amr.Hierarchy
	Load *load.Recorder
	// Ledger is the installed listener of H (required): it supplies the
	// incrementally maintained aggregates (per-processor level loads,
	// subtree works, owned-grid lists) every decision reads in
	// O(1)/O(procs). Ledger.Verify is their independent recomputation.
	Ledger *load.Ledger
	// Now returns the current virtual time (required), needed to probe
	// links whose background traffic varies.
	Now func() float64
	// Gamma is the γ threshold of Section 4.4 (default 2.0): global
	// redistribution runs only when Gain > γ·Cost.
	Gamma float64
	// ImbalanceEps is the trigger for the "imbalance exists?" test: the
	// gain/cost evaluation runs when the groups' normalised load ratio
	// exceeds 1+ImbalanceEps (default 0.05).
	ImbalanceEps float64
	// Forecast, when non-nil, smooths probe measurements NWS-style
	// before they enter the cost model — the integration the paper
	// lists as future work ("connect this proposed DLB scheme with
	// tools such as the NWS service"). Raw probes are still taken and
	// recorded; the forecast replaces them in Eq. 1. It is also the
	// fallback the global phase uses when every probe attempt fails.
	Forecast *netsim.ForecastSet
	// Quarantined, when non-nil, reports that a group is unreachable
	// at time t; the global phase must then skip it as donor and
	// receiver (fault-driven degraded mode).
	Quarantined func(group int, t float64) bool
	// Admitted, when non-nil, reports whether a processor is admitted
	// to own work under elastic membership: dead and rejoining procs
	// are excluded from placement and balancing targets until the
	// engine re-admits them. Nil admits every alive processor.
	Admitted func(p int) bool
	// ForceEval makes the next global evaluation run even below the
	// imbalance trigger — the catch-up redistribution considered when
	// a quarantine window closes. The engine sets and clears it.
	ForceEval bool
}

// DefaultGamma is the paper's default γ.
const DefaultGamma = 2.0

// DefaultImbalanceEps is the default imbalance trigger.
const DefaultImbalanceEps = 0.05

func (c *Context) gamma() float64 {
	if c.Gamma <= 0 {
		return DefaultGamma
	}
	return c.Gamma
}

func (c *Context) imbalanceEps() float64 {
	if c.ImbalanceEps <= 0 {
		return DefaultImbalanceEps
	}
	return c.ImbalanceEps
}

// Migration records one grid changing owner.
type Migration struct {
	Grid     amr.GridID
	From, To int
	Bytes    int64
}

// GlobalDecision reports what the global phase did after a level-0
// step.
type GlobalDecision struct {
	// Evaluated is true when imbalance triggered the gain/cost check.
	Evaluated bool
	// Gain and Cost are the heuristic estimates (Eqs. 1–4); valid when
	// Evaluated.
	Gain, Cost float64
	// Gamma and Delta snapshot the remaining inputs of the Eq. 1 gate
	// exactly as the balancer compared them: the γ threshold in effect
	// and the measured δ overhead folded into Cost. GainCostValid marks
	// the decisions where the gate actually ran — it stays false on the
	// one-group, degraded and parallel paths, where Invoked does not
	// follow from Gain > γ·Cost. Oracles must test the gate only when
	// GainCostValid; post-hoc recomputation from the recorder would see
	// a different (already reset, or resumed-stale) interval.
	Gamma, Delta  float64
	GainCostValid bool
	// ProbeTime is the wall time consumed measuring α and β.
	ProbeTime float64
	// Invoked is true when redistribution was actually performed.
	Invoked bool
	// Migrations lists the level-0 grids moved between groups.
	Migrations []Migration
	// MovedBytes is the total migrated volume.
	MovedBytes int64

	// Fault-tolerance outcome of the global phase.
	//
	// ProbeAttempts is the number of probe attempts made (0 when no
	// probe ran); RetryTime the wall time lost to failed attempts and
	// backoff (the engine charges it into δ). ProbeFailed is true when
	// every attempt failed; UsedForecast when the cost model then ran
	// on the NWS forecast instead of a live measurement. Quarantined
	// lists the groups excluded as donor/receiver; Degraded is true
	// when fewer than two groups were reachable and the step fell back
	// to local-only balancing.
	ProbeAttempts int
	RetryTime     float64
	ProbeFailed   bool
	UsedForecast  bool
	Quarantined   []int
	Degraded      bool
	// ProbedA and ProbedB are the two groups whose link the global
	// phase probed (donor and receiver); valid when ProbeAttempts > 0.
	// The engine feeds probe outcomes into membership suspicion.
	ProbedA, ProbedB int
}

// Balancer is a dynamic load-balancing scheme driven by the SAMR
// integration loop at the points of the paper's Figure 5.
type Balancer interface {
	// Name identifies the scheme in reports.
	Name() string
	// PlaceChild chooses the owner for a newly created child grid.
	PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int
	// LocalBalance rebalances level l after one of its time steps and
	// returns the migrations performed.
	LocalBalance(ctx *Context, level int) []Migration
	// GlobalBalance runs after each level-0 time step.
	GlobalBalance(ctx *Context) GlobalDecision
}

// leastLoadedProc returns the processor of the set with the smallest
// perf-normalised cell count at the given level.
func leastLoadedProc(ctx *Context, procs []int, level int) int {
	best, bestN := procs[0], math.Inf(1)
	for _, p := range procs {
		n := ctx.Ledger.ProcCells(level, p) / ctx.Sys.Perf(p)
		if n < bestN {
			best, bestN = p, n
		}
	}
	return best
}

// allProcs returns every admitted non-failed processor. Fallback
// chain: admitted ∩ alive → alive → all (only when every single
// processor has failed is there no better choice left, and the run is
// over anyway).
func allProcs(ctx *Context) []int {
	alive := ctx.Sys.AliveProcs()
	if adm := admittedOf(ctx, alive); len(adm) > 0 {
		return adm
	}
	if len(alive) > 0 {
		return alive
	}
	procs := make([]int, ctx.Sys.NumProcs())
	for i := range procs {
		procs[i] = i
	}
	return procs
}

// groupProcs returns group g's admitted non-failed processors
// ascending, with the same fallback chain as allProcs scoped to the
// group.
func groupProcs(ctx *Context, g int) []int {
	alive := ctx.Sys.AliveInGroup(g)
	if adm := admittedOf(ctx, alive); len(adm) > 0 {
		return adm
	}
	if len(alive) > 0 {
		return alive
	}
	return ctx.Sys.ProcsInGroup(g) // ascending by construction
}

// admittedOf filters procs through the membership admission predicate
// (identity when none is attached).
func admittedOf(ctx *Context, procs []int) []int {
	if ctx.Admitted == nil {
		return procs
	}
	out := make([]int, 0, len(procs))
	for _, p := range procs {
		if ctx.Admitted(p) {
			out = append(out, p)
		}
	}
	return out
}

// eachGroup runs pack over every group's own processors in group
// order and concatenates the migrations: the shape of every per-group
// local phase and of the global phase's local-only fallback.
func eachGroup(ctx *Context, level int, pack func(ctx *Context, level int, procs []int) []Migration) []Migration {
	var out []Migration
	for g := 0; g < ctx.Sys.NumGroups(); g++ {
		out = append(out, pack(ctx, level, groupProcs(ctx, g))...)
	}
	return out
}

// ownedBy collects the level's grids the processors own, off the
// ledger's per-owner lists. The result is the caller's to reorder, and
// every caller sorts it by a total order, so the collection order
// never reaches a decision.
func ownedBy(ctx *Context, level int, procs []int) []*amr.Grid {
	var grids []*amr.Grid
	for _, p := range procs {
		grids = append(grids, ctx.Ledger.Owned(level, p)...)
	}
	return grids
}

// migratedBytes is the total volume of the migrations.
func migratedBytes(migs []Migration) int64 {
	var n int64
	for _, m := range migs {
		n += m.Bytes
	}
	return n
}
