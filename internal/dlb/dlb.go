// Package dlb implements the paper's two dynamic load balancers:
//
//   - ParallelDLB — the baseline scheme from Lan et al. (ICPP 2001),
//     designed for homogeneous parallel machines: after each time step
//     at every level, the level's grids are evenly redistributed over
//     *all* processors, ignoring group structure and network
//     heterogeneity.
//
//   - DistributedDLB — the paper's contribution: balancing is split
//     into a local phase (within each group, after every finer-level
//     step) and a global phase (between groups, evaluated only after
//     each level-0 step and invoked only when the heuristic gain
//     exceeds γ times the measured redistribution cost). Children are
//     always placed in their parent's group, eliminating remote
//     parent–child communication.
//
// Both balancers operate on the amr.Hierarchy's ownership fields and
// report the migrations they perform; the engine charges virtual time
// for the implied data motion.
package dlb

import (
	"math"
	"sort"

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

// balanceOver evenly redistributes level-l grids over the processors
// in procs, proportionally to their performance weights. Grids move
// from the most-overloaded processor to the most-underloaded until no
// move improves the imbalance. Returns the migrations.
func balanceOver(ctx *Context, level int, procs []int) []Migration {
	grids := ctx.H.Grids(level)
	if len(grids) == 0 || len(procs) < 2 {
		return nil
	}
	loadOf := make(map[int]float64, len(procs))
	byOwner := make(map[int][]*amr.Grid)
	var perfSum, total float64
	for _, p := range procs {
		perfSum += ctx.Sys.Perf(p)
		loadOf[p] = ctx.Ledger.ProcCells(level, p)
		total += loadOf[p]
		// Copy: migrations mutate both these working lists and,
		// through ownership events, the ledger's own lists.
		byOwner[p] = append([]*amr.Grid(nil), ctx.Ledger.Owned(level, p)...)
	}
	if total == 0 {
		return nil
	}
	var out []Migration
	for iter := 0; iter < 16*len(grids); iter++ {
		src, dst := extremeProcs(ctx, procs, loadOf)
		if src == dst {
			break
		}
		// Target loads proportional to perf; how much src should shed.
		srcTarget := total * ctx.Sys.Perf(src) / perfSum
		dstTarget := total * ctx.Sys.Perf(dst) / perfSum
		surplus := loadOf[src] - srcTarget
		deficit := dstTarget - loadOf[dst]
		budget := math.Min(surplus, deficit)
		if budget <= 0 {
			break
		}
		// Move the largest grid not exceeding the budget, or the
		// smallest grid if every grid exceeds it but moving it still
		// reduces the max-min spread.
		g := pickGrid(byOwner[src], budget)
		if g == nil {
			break
		}
		cells := float64(g.NumCells())
		if cells > budget {
			// Moving would overshoot; only do it if it still improves.
			// The spread test must use the same perf-normalised loads
			// donor/receiver selection uses: on heterogeneous
			// processors a raw-cell comparison stops the loop early or
			// accepts moves that worsen the normalised imbalance
			// (e.g. shipping a large grid to a slow processor).
			srcPerf, dstPerf := ctx.Sys.Perf(src), ctx.Sys.Perf(dst)
			newSpread := math.Abs((loadOf[dst]+cells)/dstPerf - (loadOf[src]-cells)/srcPerf)
			oldSpread := loadOf[src]/srcPerf - loadOf[dst]/dstPerf
			if newSpread >= oldSpread {
				break
			}
		}
		migrate(ctx, g, dst, &out, byOwner, loadOf)
	}
	return out
}

// extremeProcs returns the most overloaded and most underloaded
// processors (by perf-normalised load) of the set.
func extremeProcs(ctx *Context, procs []int, loadOf map[int]float64) (src, dst int) {
	src, dst = procs[0], procs[0]
	maxN, minN := math.Inf(-1), math.Inf(1)
	for _, p := range procs {
		n := loadOf[p] / ctx.Sys.Perf(p)
		if n > maxN {
			maxN, src = n, p
		}
		if n < minN {
			minN, dst = n, p
		}
	}
	return src, dst
}

// pickGrid returns the largest grid with at most `budget` cells, or
// the overall smallest grid when none fits. Ties break on the lowest
// grid ID — never on slice position, which shifts as migrations
// append to and delete from the per-owner lists — so migration
// sequences are insensitive to grid traversal order.
func pickGrid(grids []*amr.Grid, budget float64) *amr.Grid {
	var best, smallest *amr.Grid
	for _, g := range grids {
		c := float64(g.NumCells())
		if smallest == nil || c < float64(smallest.NumCells()) ||
			(c == float64(smallest.NumCells()) && g.ID < smallest.ID) {
			smallest = g
		}
		if c <= budget && (best == nil || c > float64(best.NumCells()) ||
			(c == float64(best.NumCells()) && g.ID < best.ID)) {
			best = g
		}
	}
	if best != nil {
		return best
	}
	return smallest
}

func migrate(ctx *Context, g *amr.Grid, to int, out *[]Migration, byOwner map[int][]*amr.Grid, loadOf map[int]float64) {
	from := g.Owner
	cells := float64(g.NumCells())
	// Remove from source list.
	lst := byOwner[from]
	for i, x := range lst {
		if x.ID == g.ID {
			byOwner[from] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	ctx.H.SetOwner(g, to)
	byOwner[to] = append(byOwner[to], g)
	loadOf[from] -= cells
	loadOf[to] += cells
	*out = append(*out, Migration{
		Grid: g.ID, From: from, To: to,
		Bytes: g.Bytes(len(ctx.H.Fields)),
	})
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

// sortedCopy returns procs sorted ascending (stable iteration order
// for deterministic balancing).
func sortedCopy(procs []int) []int {
	out := append([]int(nil), procs...)
	sort.Ints(out)
	return out
}
