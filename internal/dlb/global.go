package dlb

import (
	"math"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/load"
)

// The three global phases. Each has the signature globalPhase.run
// wants; only the second-order diffusion reads the policy value (its
// flow memory lives there).

// spread is what a multi-group global phase knows once it has decided
// that an imbalance exists: the reachable groups, each one's
// perf-normalised measure z, and the two extremes.
type spread struct {
	groups      []int     // reachable groups, ascending
	z           []float64 // indexed by group; set for reachable groups only
	donor, recv int       // the groups with the largest and smallest z
	maxN, minN  float64   // z[donor], z[recv]
}

// openGlobal is the part of Fig. 4's left column every group-aware
// global phase starts with, extended with the fault-driven degraded
// modes: a one-group system just evens out level 0; quarantined and
// fully failed groups are skipped as donor and receiver, and with fewer
// than two reachable groups the step degrades to local-only balancing
// until the outage lifts; otherwise "imbalance exist?" is judged over
// the reachable groups' measure/perf — a catch-up evaluation right
// after a quarantine forces the check. ok is false when d is already
// the step's whole decision.
func openGlobal(ctx *Context, measure func(group int) float64) (d GlobalDecision, s spread, ok bool) {
	sys := ctx.Sys
	if sys.NumGroups() < 2 {
		return oneGroupGlobal(ctx), s, false
	}
	s.groups = healthyGroups(ctx, &d)
	if len(s.groups) < 2 {
		degradeToLocal(ctx, &d)
		return d, s, false
	}
	s.z = make([]float64, sys.NumGroups())
	s.donor, s.recv = -1, -1
	s.maxN, s.minN = math.Inf(-1), math.Inf(1)
	for _, g := range s.groups {
		n := measure(g) / sys.GroupPerf(g)
		s.z[g] = n
		if n > s.maxN {
			s.maxN, s.donor = n, g
		}
		if n < s.minN {
			s.minN, s.recv = n, g
		}
	}
	if !ctx.ForceEval {
		ratio := math.Inf(1) // minN == 0 with work elsewhere: unbounded imbalance
		switch {
		case s.maxN <= 0:
			ratio = 1 // nothing reachable holds work: perfectly (vacuously) balanced
		case s.minN > 0:
			ratio = s.maxN / s.minN
		}
		if ratio <= 1+ctx.imbalanceEps() {
			return d, s, false
		}
	}
	d.Evaluated = true
	return d, s, true
}

// gatedPairwiseGlobal is the paper's global phase (Section 4.3–4.4):
// the groups' iteration-weighted workloads (Eqs. 2–3) are compared; if
// the normalised imbalance exceeds the trigger, the scheme probes the
// link between the most and the least loaded group with two messages
// (recovering α and β), estimates the redistribution cost (Eq. 1) and
// the computational gain (Eq. 4), and redistributes level-0 grids from
// the overloaded to the underloaded group only when Gain > γ·Cost.
// The amount moved is the paper's boundary shift:
// (W_A − W_B) / (2·W_A) of A's level-0 cells, taken from the grids
// nearest the receiving group's region, splitting a grid when a whole
// one would overshoot. Probes retry with exponential backoff and fall
// back to the NWS forecast.
func gatedPairwiseGlobal(_ *policy, ctx *Context) GlobalDecision {
	d, s, ok := openGlobal(ctx, ctx.Load.GroupWork)
	if !ok {
		return d
	}
	sys := ctx.Sys
	donor, recv, maxN, minN := s.donor, s.recv, s.maxN, s.minN

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

	d.Gain = ctx.Load.Gain()
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

// evenLevel0Global is the parallel scheme's stand-in for a global
// phase: it has none, and simply evens level 0 out over all processors
// after every level-0 step, oblivious to group boundaries and network
// state. Finer grids are left where they are.
func evenLevel0Global(_ *policy, ctx *Context) GlobalDecision {
	migs := balanceOver(ctx, 0, allProcs(ctx))
	return GlobalDecision{
		Invoked:    len(migs) > 0,
		Migrations: migs,
		MovedBytes: migratedBytes(migs),
	}
}

// oneGroupGlobal is the global phase of a degenerate one-group system:
// there is no inter-group link to probe, but the level-0 redistribution
// is still the scheme's global phase, not local traffic. Marking it
// evaluated makes the engine charge the moves to the Redistribution
// phase and record δ, so the cost side of Eq. 1 keeps its history on
// one-group systems. Gain/Cost remain zero: no estimate was needed.
func oneGroupGlobal(ctx *Context) GlobalDecision {
	d := evenLevel0Global(nil, ctx)
	d.Evaluated = d.Invoked
	return d
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
	d.Migrations = eachGroup(ctx, 0, balanceOver)
	d.MovedBytes = migratedBytes(d.Migrations)
	d.Invoked = len(d.Migrations) > 0
}

// sosBeta is the second-order scheme's over-relaxation parameter β,
// from the (1, 2) range of arXiv:1308.0148.
const sosBeta = 1.25

// diffuse balances the groups' indivisible grid loads with
// nearest-neighbour diffusion over the netsim fabric graph, after
// Demirel & Sbalzarini (arXiv:1308.0148): each global step computes a
// work flow along every usable inter-group link and rounds it onto
// whole level-0 grids, instead of picking a single donor/receiver
// pair behind the paper's gain/cost gate.
//
//   - First-order scheme (order 1): the flow on edge (i,j) is
//     α·(z_i − z_j)·h_ij, where z_g = W_g / P_g is the group's
//     perf-normalised workload, h_ij = 2·P_i·P_j/(P_i+P_j) the
//     harmonic-mean performance weight converting the z-difference
//     back into work units, and α = 1/|healthy groups| the diffusion
//     parameter keeping the Jacobi sweep stable.
//   - Second-order scheme (order 2): the flow carries memory,
//     f_t = (β−1)·f_{t−1} + β·f_FOS with β = sosBeta, which converges
//     in roughly the square root of the FOS step count. The flow
//     memory is run state on the policy value; like the NWS forecast
//     history, it restarts empty after a checkpoint resume (a crash
//     loses it by construction).
//   - Integer rounding: loads are indivisible grids. A flow moves
//     whole level-0 grids, nearest to the receiver's centroid first;
//     a grid is shipped only while at least half of it fits the
//     remaining flow (moved + w/2 ≤ f), and grids are never split.
//
// Decisions report Evaluated without GainCostValid: there is no
// Gain/Cost record, and the invariant oracle's gate rule is scoped off
// via Traits.
func diffuse(p *policy, ctx *Context, order int) GlobalDecision {
	// z_g = W_g / P_g over the reachable groups, using the
	// iteration-weighted subtree works (the same units the rounding
	// step compares grid loads in).
	d, s, ok := openGlobal(ctx, ctx.Ledger.GroupSubtreeWork)
	if !ok {
		return d
	}
	sys, healthy, z := ctx.Sys, s.groups, s.z

	// One Jacobi sweep: flows on every usable fabric edge, computed
	// from the same z snapshot (edges do not see each other's moves
	// until the next step).
	alpha := 1 / float64(len(healthy))
	flow := make(map[[2]int]float64)
	var edges [][2]int // in (i, j) order: healthy is ascending
	for ii, i := range healthy {
		for _, j := range healthy[ii+1:] {
			if _, err := sys.Net.Between(i, j); err != nil {
				continue // no route: diffusion only flows along live links
			}
			pi, pj := sys.GroupPerf(i), sys.GroupPerf(j)
			h := 2 * pi * pj / (pi + pj)
			f := alpha * (z[i] - z[j]) * h
			key := [2]int{i, j}
			if order == 2 {
				f = (sosBeta-1)*p.flow[key] + sosBeta*f
			}
			flow[key] = f
			edges = append(edges, key)
		}
	}
	if order == 2 {
		p.flow = flow
	}

	// Execute the flows in edge order, rounding each onto whole
	// level-0 grids.
	for _, k := range edges {
		donor, recv, f := k[0], k[1], flow[k]
		if f < 0 {
			donor, recv, f = recv, donor, -f
		}
		if f < 1 {
			continue
		}
		d.Migrations = append(d.Migrations, moveLevel0Rounded(ctx, donor, recv, f)...)
	}
	d.MovedBytes = migratedBytes(d.Migrations)
	d.Invoked = len(d.Migrations) > 0
	return d
}

// moveLevel0 migrates level-0 grids carrying approximately moveWork
// iteration-weighted work from the donor group to the receiver group,
// nearest-to-receiver first, splitting one grid if a whole grid would
// overshoot by more than a quarter of its work.
func moveLevel0(ctx *Context, donor, recv int, moveWork float64) []Migration {
	target := receiverCentroid(ctx, recv)
	donorGrids := donorLevel0Nearest(ctx, donor, target)

	recvProcs := groupProcs(ctx, recv)
	var out []Migration
	remaining := moveWork
	for _, g := range donorGrids {
		if remaining <= 0 {
			break
		}
		work := ctx.Ledger.SubtreeWork(g.ID)
		if work <= remaining*1.25 {
			out = append(out, shipRoot(ctx, g, recvProcs))
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
		out = append(out, shipRoot(ctx, piece, recvProcs))
		break
	}
	return out
}

// shipRoot moves level-0 grid g, and with it its whole subtree, to the
// least loaded of the receiving processors.
func shipRoot(ctx *Context, g *amr.Grid, recvProcs []int) Migration {
	from := g.Owner
	ctx.H.SetOwner(g, leastLoadedProc(ctx, recvProcs, 0))
	adoptSubtree(ctx, g)
	return Migration{Grid: g.ID, From: from, To: g.Owner, Bytes: g.Bytes(len(ctx.H.Fields))}
}

// donorLevel0Nearest returns the donor group's level-0 grids ordered
// nearest-to-target first, ties broken by grid ID.
func donorLevel0Nearest(ctx *Context, donor int, target [3]float64) []*amr.Grid {
	grids := ownedBy(ctx, 0, ctx.Sys.ProcsInGroup(donor))
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
	if target[d] <= boxCentroid(g.Box)[d] {
		// Receiver is on the low side: moved piece = low planes.
		lo, _ := ctx.H.SplitGrid(g, d, g.Box.Lo[d]+planes)
		return lo
	}
	_, hi := ctx.H.SplitGrid(g, d, g.Box.Hi[d]+1-planes)
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

// moveLevel0Rounded migrates whole level-0 grids carrying about
// `target` iteration-weighted work from donor to receiver: nearest to
// the receiver's centroid first, a grid ships only while at least
// half of it fits the remaining flow, and grids are never split (the
// integer-load rounding of arXiv:1308.0148).
func moveLevel0Rounded(ctx *Context, donor, recv int, target float64) []Migration {
	donorGrids := donorLevel0Nearest(ctx, donor, receiverCentroid(ctx, recv))
	recvProcs := groupProcs(ctx, recv)
	var out []Migration
	var moved float64
	for _, g := range donorGrids {
		w := ctx.Ledger.SubtreeWork(g.ID)
		if moved+w/2 > target {
			continue // less than half fits; try a smaller grid further out
		}
		out = append(out, shipRoot(ctx, g, recvProcs))
		moved += w
		if moved >= target {
			break
		}
	}
	return out
}
