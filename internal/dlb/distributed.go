package dlb

import (
	"math"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/load"
)

// DistributedDLB is the paper's scheme for distributed systems. Its
// behaviour, following Section 4:
//
//   - Local phase: after each time step at a finer level, each group
//     evenly redistributes that level's grids among its own
//     processors only. Children stay in their parent's group, so
//     parent–child communication never crosses the WAN.
//
//   - Global phase: after each time step at level 0, the groups'
//     iteration-weighted workloads (Eqs. 2–3) are compared. If the
//     normalised imbalance exceeds the trigger, the scheme probes the
//     inter-group link with two messages (recovering α and β),
//     estimates the redistribution cost (Eq. 1) and the computational
//     gain (Eq. 4), and redistributes level-0 grids from the
//     overloaded to the underloaded group only when Gain > γ·Cost.
//     The amount moved is the paper's boundary shift:
//     (W_A − W_B) / (2·W_A) of A's level-0 cells, taken from the
//     grids nearest the receiving group's region, splitting a grid
//     when a whole one would overshoot.
type DistributedDLB struct{}

// Name implements Balancer.
func (DistributedDLB) Name() string { return "distributed-dlb" }

// PlaceChild implements Balancer: children go to the least-loaded
// surviving processor of the parent's group, keeping parent–child
// communication local.
func (DistributedDLB) PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int {
	group := ctx.Sys.GroupOf(parent.Owner)
	return leastLoadedProc(ctx, groupProcs(ctx, group), parent.Level+1)
}

// LocalBalance implements Balancer: per-group even redistribution
// over the group's surviving processors. "An overloaded processor can
// migrate its workload to an underloaded processor of the same group
// only."
func (DistributedDLB) LocalBalance(ctx *Context, level int) []Migration {
	var out []Migration
	for g := 0; g < ctx.Sys.NumGroups(); g++ {
		out = append(out, balanceOver(ctx, level, groupProcs(ctx, g))...)
	}
	return out
}

// GlobalBalance implements Balancer (the flowchart of Fig. 4, left
// column), extended with the fault-driven degraded modes: quarantined
// groups are skipped as donor and receiver, probes retry with
// exponential backoff and fall back to the NWS forecast, and when
// fewer than two groups are reachable the step degrades to local-only
// balancing until the outage lifts.
func (DistributedDLB) GlobalBalance(ctx *Context) GlobalDecision {
	var d GlobalDecision
	sys := ctx.Sys
	if sys.NumGroups() < 2 {
		return oneGroupGlobal(ctx)
	}

	healthy := healthyGroups(ctx, &d)
	if len(healthy) < 2 {
		degradeToLocal(ctx, &d)
		return d
	}

	// "imbalance exist?" — judged over the reachable groups only; a
	// catch-up evaluation right after a quarantine forces the check.
	works := ctx.Load.GroupWorks(sys)
	donor, recv := -1, -1
	maxN, minN := math.Inf(-1), math.Inf(1)
	for _, g := range healthy {
		n := works[g] / sys.GroupPerf(g)
		if n > maxN {
			maxN, donor = n, g
		}
		if n < minN {
			minN, recv = n, g
		}
	}
	if !ctx.ForceEval {
		ratio := math.Inf(1) // minN == 0 with work elsewhere: unbounded imbalance
		switch {
		case maxN <= 0:
			ratio = 1 // nothing reachable holds work: perfectly (vacuously) balanced
		case minN > 0:
			ratio = maxN / minN
		}
		if ratio <= 1+ctx.imbalanceEps() {
			return d
		}
	}
	d.Evaluated = true

	// Degenerate loads: no reachable work, or one group holding
	// everything with nowhere distinct to send it.
	if donor == recv || maxN <= 0 {
		return d
	}

	// The boundary-shift amount (Fig. 6): a fraction
	// (W_A − W_B) / (2·W_A) of the donor's workload, using
	// perf-normalised works so the formula extends to heterogeneous
	// groups (it reduces to the paper's for equal performance). The
	// workload of a level-0 grid includes its whole subtree with
	// Eq. 3's iteration weighting — a level-0 grid whose region holds
	// deep refinement carries far more work than its own cells.
	frac := (maxN - minN) / (2 * maxN)
	donorWork := ctx.Ledger.GroupSubtreeWork(donor)
	moveWork := frac * donorWork
	if moveWork < 1 {
		return d
	}
	// The transferred bytes are the level-0 share of the moved work
	// (only level-0 grids migrate; finer grids are rebuilt from them).
	donorCells := ctx.Ledger.GroupLevel0Cells(donor)
	moveBytes := int64(frac*float64(donorCells)) * int64(len(ctx.H.Fields)) * 8
	if moveBytes < 8 {
		moveBytes = 8
	}

	// Probe the link between the two groups: two messages yield α̂, β̂
	// under the network's *current* background traffic. Probes can
	// time out under fault injection; the bounded retry loop backs
	// off exponentially and its wasted wall time is charged to the δ
	// overhead term by the engine.
	link, lerr := sys.Net.Between(donor, recv)
	if lerr != nil {
		// No route between the two groups at all: treat the pair as
		// unreachable for this step.
		d.ProbeFailed = true
		return d
	}
	alphaHat, betaHat, probeT, retryT, attempts, perr := link.ProbeWithRetry(ctx.Now())
	d.ProbedA, d.ProbedB = donor, recv
	d.ProbeTime = probeT
	d.RetryTime = retryT
	d.ProbeAttempts = attempts
	if perr != nil {
		d.ProbeFailed = true
		// Every attempt failed: fall back to the last NWS forecast of
		// this link. With no history either, there is no cost
		// estimate to trust — skip redistribution until the network
		// answers again.
		if ctx.Forecast != nil {
			if a, b, ok := ctx.Forecast.For(link).Forecast(); ok {
				alphaHat, betaHat = a, b
				d.UsedForecast = true
			}
		}
		if !d.UsedForecast {
			return d
		}
	} else if ctx.Forecast != nil {
		// With NWS-style forecasting enabled, the probe feeds the
		// measurement history and the smoothed prediction replaces
		// the instantaneous values in the cost model.
		lf := ctx.Forecast.For(link)
		lf.Record(alphaHat, betaHat)
		if a, b, ok := lf.Forecast(); ok {
			alphaHat, betaHat = a, b
		}
	}

	d.Gain = ctx.Load.Gain(sys)
	d.Delta = ctx.Load.Delta()
	d.Cost = load.Cost(alphaHat, betaHat, float64(moveBytes), d.Delta)
	d.Gamma = ctx.gamma()
	d.GainCostValid = true
	if d.Gain <= d.Gamma*d.Cost {
		return d
	}

	// Perform the redistribution: move level-0 grids nearest the
	// receiving group's region, splitting the last grid to match.
	d.Invoked = true
	d.Migrations = moveLevel0(ctx, donor, recv, moveWork)
	d.MovedBytes = migratedBytes(d.Migrations)
	return d
}

// oneGroupGlobal is the global phase of a degenerate one-group system:
// there is no inter-group link to probe, but the level-0 redistribution
// is still the scheme's global phase, not local traffic. Marking it
// evaluated makes the engine charge the moves to the Redistribution
// phase and record δ, so the cost side of Eq. 1 keeps its history on
// one-group systems. Gain/Cost remain zero: no estimate was needed.
func oneGroupGlobal(ctx *Context) GlobalDecision {
	var d GlobalDecision
	d.Migrations = balanceOver(ctx, 0, allProcs(ctx))
	d.MovedBytes = migratedBytes(d.Migrations)
	d.Invoked = len(d.Migrations) > 0
	d.Evaluated = d.Invoked
	return d
}

// migratedBytes is the total volume of the migrations.
func migratedBytes(migs []Migration) int64 {
	var n int64
	for _, m := range migs {
		n += m.Bytes
	}
	return n
}

// healthyGroups partitions the groups into reachable and excluded,
// recording quarantined groups on the decision. A group is healthy
// when it is not quarantined and has at least one surviving
// processor: a fully failed group can neither donate work nor receive
// it — picking it as the underloaded receiver would park level-0
// grids on dead processors until the next recovery.
func healthyGroups(ctx *Context, d *GlobalDecision) []int {
	sys := ctx.Sys
	var healthy []int
	for g := 0; g < sys.NumGroups(); g++ {
		if ctx.Quarantined != nil && ctx.Quarantined(g, ctx.Now()) {
			d.Quarantined = append(d.Quarantined, g)
			continue
		}
		if len(sys.AliveInGroup(g)) == 0 {
			continue
		}
		healthy = append(healthy, g)
	}
	return healthy
}

// degradeToLocal is the shared fewer-than-two-reachable-groups
// fallback: no global phase is possible, so every group (quarantined
// ones included: they are cut off, not dead) evens out its own
// processors and waits for the outage window to close.
func degradeToLocal(ctx *Context, d *GlobalDecision) {
	d.Degraded = true
	for g := 0; g < ctx.Sys.NumGroups(); g++ {
		d.Migrations = append(d.Migrations, balanceOver(ctx, 0, groupProcs(ctx, g))...)
	}
	d.MovedBytes = migratedBytes(d.Migrations)
	d.Invoked = len(d.Migrations) > 0
}

// moveLevel0 migrates level-0 grids carrying approximately moveWork
// iteration-weighted work from the donor group to the receiver group,
// nearest-to-receiver first, splitting one grid if a whole grid would
// overshoot by more than a quarter of its work.
func moveLevel0(ctx *Context, donor, recv int, moveWork float64) []Migration {
	target := receiverCentroid(ctx, recv)
	donorGrids := donorLevel0Nearest(ctx, donor, target)

	recvProcs := groupProcs(ctx, recv)
	numFields := len(ctx.H.Fields)
	var out []Migration
	remaining := moveWork
	for _, g := range donorGrids {
		if remaining <= 0 {
			break
		}
		work := ctx.Ledger.SubtreeWork(g.ID)
		if work <= remaining*1.25 {
			// Move the whole grid.
			from := g.Owner
			ctx.H.SetOwner(g, leastLoadedProc(ctx, recvProcs, 0))
			adoptSubtree(ctx, g)
			out = append(out, Migration{Grid: g.ID, From: from, To: g.Owner, Bytes: g.Bytes(numFields)})
			remaining -= work
			continue
		}
		// The grid carries much more work than remains to move: split
		// it and move the piece facing the receiver (the paper's
		// "moving the groups' boundaries slightly").
		piece := splitTowards(ctx, g, remaining/work, target)
		if piece == nil {
			break
		}
		from := piece.Owner
		ctx.H.SetOwner(piece, leastLoadedProc(ctx, recvProcs, 0))
		adoptSubtree(ctx, piece)
		out = append(out, Migration{Grid: piece.ID, From: from, To: piece.Owner, Bytes: piece.Bytes(numFields)})
		break
	}
	return out
}

// donorLevel0Nearest returns the donor group's level-0 grids ordered
// nearest-to-target first, ties broken by grid ID.
func donorLevel0Nearest(ctx *Context, donor int, target [3]float64) []*amr.Grid {
	var grids []*amr.Grid
	for _, p := range sortedCopy(ctx.Sys.ProcsInGroup(donor)) {
		grids = append(grids, ctx.Ledger.Owned(0, p)...)
	}
	sort.Slice(grids, func(i, j int) bool {
		di := dist2(boxCentroid(grids[i].Box), target)
		dj := dist2(boxCentroid(grids[j].Box), target)
		if di != dj {
			return di < dj
		}
		return grids[i].ID < grids[j].ID
	})
	return grids
}

// adoptSubtree moves g's descendants onto g's (new) owner. Only
// level-0 grids migrate between groups — their finer grids are
// rebuilt on the receiving side rather than shipped, so the
// descendants simply follow the root's owner instead of appearing as
// migrations or transfer bytes. Without this the subtree stays on the
// donor group's processors until the next regrid, breaking
// parent–child co-location whenever RegridInterval > 1 (the ledger
// already attributes the whole subtree to the root's group, so the
// two views disagreed). Children are visited in level order, which is
// deterministic.
func adoptSubtree(ctx *Context, g *amr.Grid) {
	for _, c := range ctx.H.Children(g) {
		ctx.H.SetOwner(c, g.Owner)
		adoptSubtree(ctx, c)
	}
}

// splitTowards splits grid g so that the piece nearer `target` holds
// about `frac` of the grid, and returns that piece (nil when the grid
// cannot be split).
func splitTowards(ctx *Context, g *amr.Grid, frac float64, target [3]float64) *amr.Grid {
	shape := g.Box.Shape()
	d := shape.MaxDim()
	if shape[d] < 2 {
		return nil
	}
	planes := int(frac*float64(shape[d]) + 0.5)
	if planes < 1 {
		planes = 1
	}
	if planes >= shape[d] {
		planes = shape[d] - 1
	}
	c := boxCentroid(g.Box)
	var lo, hi *amr.Grid
	if target[d] <= c[d] {
		// Receiver is on the low side: moved piece = low planes.
		lo, hi = ctx.H.SplitGrid(g, d, g.Box.Lo[d]+planes)
		_ = hi
		return lo
	}
	lo, hi = ctx.H.SplitGrid(g, d, g.Box.Hi[d]+1-planes)
	_ = lo
	return hi
}

// receiverCentroid returns the cell-weighted centroid of the
// receiving group's level-0 grids, or the domain centroid when the
// group owns nothing yet.
func receiverCentroid(ctx *Context, recv int) [3]float64 {
	var sum [3]float64
	var cells float64
	for _, g := range ctx.H.Grids(0) {
		if ctx.Sys.GroupOf(g.Owner) != recv {
			continue
		}
		c := boxCentroid(g.Box)
		w := float64(g.NumCells())
		for d := 0; d < 3; d++ {
			sum[d] += c[d] * w
		}
		cells += w
	}
	if cells == 0 {
		return boxCentroid(ctx.H.Domain)
	}
	for d := 0; d < 3; d++ {
		sum[d] /= cells
	}
	return sum
}

func boxCentroid(b geom.Box) [3]float64 {
	return [3]float64{
		float64(b.Lo[0]+b.Hi[0]) / 2,
		float64(b.Lo[1]+b.Hi[1]) / 2,
		float64(b.Lo[2]+b.Hi[2]) / 2,
	}
}

func dist2(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		v := a[d] - b[d]
		s += v * v
	}
	return s
}
