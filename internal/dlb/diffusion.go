package dlb

import (
	"math"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
)

// DiffusionDLB balances the groups' indivisible grid loads with
// nearest-neighbour diffusion over the netsim fabric graph, after
// Demirel & Sbalzarini (arXiv:1308.0148): each global step computes a
// work flow along every usable inter-group link and rounds it onto
// whole level-0 grids, instead of picking a single donor/receiver
// pair behind the paper's gain/cost gate.
//
//   - First-order scheme (FOS, the default): the flow on edge (i,j)
//     is α·(z_i − z_j)·h_ij, where z_g = W_g / P_g is the group's
//     perf-normalised workload, h_ij = 2·P_i·P_j/(P_i+P_j) the
//     harmonic-mean performance weight converting the z-difference
//     back into work units, and α = 1/|healthy groups| the diffusion
//     parameter keeping the Jacobi sweep stable.
//   - Second-order scheme (SOS, Order = 2): the flow carries memory,
//     f_t = (β−1)·f_{t−1} + β·f_FOS with β = sosBeta, which converges
//     in roughly the square root of the FOS step count. The flow memory is run state;
//     like the NWS forecast history, it restarts empty after a
//     checkpoint resume (a crash loses it by construction).
//   - Integer rounding: loads are indivisible grids. A flow moves
//     whole level-0 grids, nearest to the receiver's centroid first;
//     a grid is shipped only while at least half of it fits the
//     remaining flow (moved + w/2 ≤ f), and grids are never split.
//
// The local phase and child placement are the paper's (per-group
// balanceOver, parent-group placement), so the comparison against
// DistributedDLB isolates the global policy. Decisions report
// Evaluated without GainCostValid: there is no Gain/Cost record, and
// the invariant oracle's gate rule is scoped off via Traits.
type DiffusionDLB struct {
	// Order selects the scheme: 1 or 0 = first-order, 2 = second-order
	// with flow memory.
	Order int

	// prevFlow is the SOS flow memory, keyed by the (lo, hi) group
	// pair and signed positive lo→hi.
	prevFlow map[[2]int]float64
}

// sosBeta is the SOS over-relaxation parameter β, from the (1, 2) range
// of arXiv:1308.0148.
const sosBeta = 1.25

// Name implements Balancer.
func (b *DiffusionDLB) Name() string {
	if b.Order >= 2 {
		return "diffusion-sos-dlb"
	}
	return "diffusion-dlb"
}

// PlaceChild implements Balancer: children stay in the parent's
// group, as in the paper's scheme.
func (b *DiffusionDLB) PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int {
	return DistributedDLB{}.PlaceChild(ctx, childBox, parent)
}

// LocalBalance implements Balancer with the paper's local phase:
// per-group even redistribution.
func (b *DiffusionDLB) LocalBalance(ctx *Context, level int) []Migration {
	return DistributedDLB{}.LocalBalance(ctx, level)
}

// GlobalBalance implements Balancer: one diffusion sweep per level-0
// step, rounded onto whole grids.
func (b *DiffusionDLB) GlobalBalance(ctx *Context) GlobalDecision {
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

	// z_g = W_g / P_g over the reachable groups, using the
	// iteration-weighted subtree works (the same units the rounding
	// step compares grid loads in).
	z := make(map[int]float64, len(healthy))
	maxN, minN := math.Inf(-1), math.Inf(1)
	for _, g := range healthy {
		z[g] = ctx.Ledger.GroupSubtreeWork(g) / sys.GroupPerf(g)
		maxN = math.Max(maxN, z[g])
		minN = math.Min(minN, z[g])
	}
	if !ctx.ForceEval {
		ratio := math.Inf(1)
		switch {
		case maxN <= 0:
			ratio = 1
		case minN > 0:
			ratio = maxN / minN
		}
		if ratio <= 1+ctx.imbalanceEps() {
			return d
		}
	}
	d.Evaluated = true

	// One Jacobi sweep: flows on every usable fabric edge, computed
	// from the same z snapshot (edges do not see each other's moves
	// until the next step).
	alpha := 1 / float64(len(healthy))
	flow := make(map[[2]int]float64)
	for ii, i := range healthy {
		for _, j := range healthy[ii+1:] {
			if _, err := sys.Net.Between(i, j); err != nil {
				continue // no route: diffusion only flows along live links
			}
			pi, pj := sys.GroupPerf(i), sys.GroupPerf(j)
			h := 2 * pi * pj / (pi + pj)
			f := alpha * (z[i] - z[j]) * h
			key := [2]int{i, j}
			if b.Order >= 2 {
				f = (sosBeta-1)*b.prevFlow[key] + sosBeta*f
			}
			flow[key] = f
		}
	}
	if b.Order >= 2 {
		b.prevFlow = flow
	}

	// Execute the flows in deterministic edge order, rounding each
	// onto whole level-0 grids.
	keys := make([][2]int, 0, len(flow))
	for k := range flow {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, c int) bool {
		if keys[a][0] != keys[c][0] {
			return keys[a][0] < keys[c][0]
		}
		return keys[a][1] < keys[c][1]
	})
	for _, k := range keys {
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

// moveLevel0Rounded migrates whole level-0 grids carrying about
// `target` iteration-weighted work from donor to receiver: nearest to
// the receiver's centroid first, a grid ships only while at least
// half of it fits the remaining flow, and grids are never split (the
// integer-load rounding of arXiv:1308.0148).
func moveLevel0Rounded(ctx *Context, donor, recv int, target float64) []Migration {
	donorGrids := donorLevel0Nearest(ctx, donor, receiverCentroid(ctx, recv))
	recvProcs := groupProcs(ctx, recv)
	numFields := len(ctx.H.Fields)
	var out []Migration
	var moved float64
	for _, g := range donorGrids {
		w := ctx.Ledger.SubtreeWork(g.ID)
		if moved+w/2 > target {
			continue // less than half fits; try a smaller grid further out
		}
		from := g.Owner
		ctx.H.SetOwner(g, leastLoadedProc(ctx, recvProcs, 0))
		adoptSubtree(ctx, g)
		out = append(out, Migration{Grid: g.ID, From: from, To: g.Owner, Bytes: g.Bytes(numFields)})
		moved += w
		if moved >= target {
			break
		}
	}
	return out
}
