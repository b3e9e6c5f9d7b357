package dlb

import (
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
)

// KnapsackDLB is a greedy knapsack/LPT packer in the style AMReX uses
// (Nanda et al., arXiv:2505.15122): each group's grids at the
// balanced level are repacked from scratch — sorted by cell count
// descending and assigned one by one to the processor with the least
// projected perf-normalised load — under a movement-cost cap. The cap
// bounds the bytes a single pass may migrate to knapsackMoveFrac of the
// set's total grid bytes; once it binds, further grids stay with
// their current owner, trading balance quality against data motion
// (the knapsack-vs-SFC trade-off the study measures). Placement and
// the global phase are the paper's, so the comparison isolates the
// local packing policy.
type KnapsackDLB struct{}

// knapsackMoveFrac is the movement cap: the share of a set's total grid
// bytes one pass may migrate.
const knapsackMoveFrac = 0.5

// Name implements Balancer.
func (KnapsackDLB) Name() string { return "knapsack-dlb" }

// PlaceChild implements Balancer: children stay in the parent's
// group.
func (KnapsackDLB) PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int {
	return DistributedDLB{}.PlaceChild(ctx, childBox, parent)
}

// GlobalBalance implements Balancer via the paper's gated global
// phase.
func (KnapsackDLB) GlobalBalance(ctx *Context) GlobalDecision {
	return DistributedDLB{}.GlobalBalance(ctx)
}

// LocalBalance implements Balancer: per-group LPT repacking under the
// movement cap.
func (k KnapsackDLB) LocalBalance(ctx *Context, level int) []Migration {
	var out []Migration
	for g := 0; g < ctx.Sys.NumGroups(); g++ {
		out = append(out, k.pack(ctx, level, groupProcs(ctx, g))...)
	}
	return out
}

// pack runs one capped LPT pass over the procs' grids at the level.
func (KnapsackDLB) pack(ctx *Context, level int, procs []int) []Migration {
	if len(procs) < 2 {
		return nil
	}
	inSet := make(map[int]bool, len(procs))
	for _, p := range procs {
		inSet[p] = true
	}
	var grids []*amr.Grid
	numFields := len(ctx.H.Fields)
	var totalBytes int64
	for _, g := range ctx.H.Grids(level) {
		if inSet[g.Owner] {
			grids = append(grids, g)
			totalBytes += g.Bytes(numFields)
		}
	}
	if len(grids) == 0 {
		return nil
	}
	// Longest processing time first; ties break on the lowest grid ID
	// so the packing is insensitive to traversal order.
	sort.Slice(grids, func(i, j int) bool {
		ci, cj := grids[i].NumCells(), grids[j].NumCells()
		if ci != cj {
			return ci > cj
		}
		return grids[i].ID < grids[j].ID
	})
	budget := int64(knapsackMoveFrac * float64(totalBytes))
	load := make(map[int]float64, len(procs))
	var movedBytes int64
	var out []Migration
	for _, g := range grids {
		// Least projected perf-normalised load; ties go to the lowest
		// processor (procs is sorted ascending).
		best, bestN := procs[0], load[procs[0]]/ctx.Sys.Perf(procs[0])
		for _, p := range procs[1:] {
			if n := load[p] / ctx.Sys.Perf(p); n < bestN {
				best, bestN = p, n
			}
		}
		if best != g.Owner {
			cost := g.Bytes(numFields)
			if movedBytes+cost > budget {
				// The movement cap binds: the grid stays put and its load
				// is charged to its current owner.
				best = g.Owner
			} else {
				movedBytes += cost
				out = append(out, Migration{Grid: g.ID, From: g.Owner, To: best, Bytes: cost})
				ctx.H.SetOwner(g, best)
			}
		}
		load[best] += float64(g.NumCells())
	}
	return out
}
