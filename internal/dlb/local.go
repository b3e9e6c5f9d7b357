package dlb

import (
	"math"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
)

// The three ways a local phase evens out one level's grids over one
// processor set. Each has the signature localPhase.pack wants; which
// set it runs over (each group's own processors, or all of them) is
// the policy table's choice, not the packer's.

// balanceOver evenly redistributes level-l grids over the processors
// in procs, proportionally to their performance weights. Grids move
// from the most-overloaded processor to the most-underloaded until no
// move improves the imbalance. Returns the migrations. Loads and
// owned-grid lists are read off the ledger, which every SetOwner below
// keeps current.
func balanceOver(ctx *Context, level int, procs []int) []Migration {
	grids := ctx.H.Grids(level)
	if len(grids) == 0 || len(procs) < 2 {
		return nil
	}
	loadOf := func(p int) float64 { return ctx.Ledger.ProcCells(level, p) }
	var perfSum, total float64
	for _, p := range procs {
		perfSum += ctx.Sys.Perf(p)
		total += loadOf(p)
	}
	if total == 0 {
		return nil
	}
	var out []Migration
	for iter := 0; iter < 16*len(grids); iter++ {
		src, dst := extremeProcs(ctx, procs, level)
		if src == dst {
			break
		}
		// Target loads proportional to perf; how much src should shed.
		srcTarget := total * ctx.Sys.Perf(src) / perfSum
		dstTarget := total * ctx.Sys.Perf(dst) / perfSum
		surplus := loadOf(src) - srcTarget
		deficit := dstTarget - loadOf(dst)
		budget := math.Min(surplus, deficit)
		if budget <= 0 {
			break
		}
		// Move the largest grid not exceeding the budget, or the
		// smallest grid if every grid exceeds it but moving it still
		// reduces the max-min spread.
		g := pickGrid(ctx.Ledger.Owned(level, src), budget)
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
			newSpread := math.Abs((loadOf(dst)+cells)/dstPerf - (loadOf(src)-cells)/srcPerf)
			oldSpread := loadOf(src)/srcPerf - loadOf(dst)/dstPerf
			if newSpread >= oldSpread {
				break
			}
		}
		out = append(out, Migration{Grid: g.ID, From: src, To: dst, Bytes: g.Bytes(len(ctx.H.Fields))})
		ctx.H.SetOwner(g, dst)
	}
	return out
}

// extremeProcs returns the most overloaded and most underloaded
// processors (by perf-normalised load at the level) of the set.
func extremeProcs(ctx *Context, procs []int, level int) (src, dst int) {
	src, dst = procs[0], procs[0]
	maxN, minN := math.Inf(-1), math.Inf(1)
	for _, p := range procs {
		n := ctx.Ledger.ProcCells(level, p) / ctx.Sys.Perf(p)
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

// curveKey is a box's position on a space-filling curve: the curve key
// of its centroid (doubled to stay integral).
func curveKey(key func(geom.Index) uint64, b geom.Box) uint64 {
	return key(b.Lo.Add(b.Hi))
}

// sfcPartition sorts the procs' grids at the level by curve key and
// deals them out as contiguous runs sized proportionally to processor
// performance, instead of greedily migrating grids between load
// extremes. Contiguous curve runs are spatially compact, so
// neighbouring grids tend to share a processor and the sibling exchange
// stays local — the partitioning style later AMR frameworks adopted
// (arXiv:2505.15122 measures it against the knapsack). Consecutive
// Hilbert positions are face neighbours, so Hilbert runs are spatially
// tighter than Morton runs. Contiguity is paid for with the one-quantum
// balance tolerance.
func sfcPartition(ctx *Context, level int, procs []int, key func(geom.Index) uint64) []Migration {
	if len(procs) < 2 {
		return nil
	}
	grids := ownedBy(ctx, level, procs)
	if len(grids) == 0 {
		return nil
	}
	sort.Slice(grids, func(i, j int) bool {
		ki := curveKey(key, grids[i].Box)
		kj := curveKey(key, grids[j].Box)
		if ki != kj {
			return ki < kj
		}
		return grids[i].ID < grids[j].ID
	})
	weights := make([]float64, len(grids))
	for i, g := range grids {
		weights[i] = float64(g.NumCells())
	}
	shares := make([]float64, len(procs))
	for k, p := range procs {
		shares[k] = ctx.Sys.Perf(p)
	}
	var out []Migration
	numFields := len(ctx.H.Fields)
	for i, k := range DealByShare(weights, shares) {
		g, target := grids[i], procs[k]
		if g.Owner != target {
			out = append(out, Migration{Grid: g.ID, From: g.Owner, To: target, Bytes: g.Bytes(numFields)})
			ctx.H.SetOwner(g, target)
		}
	}
	return out
}

// DealByShare deals an ordered list of weighted items out as contiguous
// runs, one per receiver, sized proportionally to the receivers'
// shares: it moves on to the next receiver once the weight dealt so far
// reaches the cumulative share of the receivers up to the current one,
// and the last receiver takes what remains. It returns, per item, the
// index of its receiver. The initial level-0 decomposition, the
// post-failure repartition and the curve partition are all this deal.
func DealByShare(weights, shares []float64) []int {
	var total, shareSum float64
	for _, w := range weights {
		total += w
	}
	for _, s := range shares {
		shareSum += s
	}
	owner := make([]int, len(weights))
	k, cum := 0, shares[0]
	var assigned float64
	for i, w := range weights {
		for k < len(shares)-1 && assigned >= total*cum/shareSum {
			k++
			cum += shares[k]
		}
		owner[i] = k
		assigned += w
	}
	return owner
}

// knapsackMoveFrac is the movement cap of lptPack: the share of a
// set's total grid bytes one pass may migrate.
const knapsackMoveFrac = 0.5

// lptPack is a greedy knapsack/LPT packer in the style AMReX uses
// (Nanda et al., arXiv:2505.15122): the procs' grids at the level are
// repacked from scratch — sorted by cell count descending and assigned
// one by one to the processor with the least projected perf-normalised
// load — under a movement-cost cap. The cap bounds the bytes a single
// pass may migrate to knapsackMoveFrac of the set's total grid bytes;
// once it binds, further grids stay with their current owner, trading
// balance quality (the one-quantum tolerance) against data motion —
// the knapsack-vs-SFC trade-off the study measures.
func lptPack(ctx *Context, level int, procs []int) []Migration {
	if len(procs) < 2 {
		return nil
	}
	grids := ownedBy(ctx, level, procs)
	if len(grids) == 0 {
		return nil
	}
	numFields := len(ctx.H.Fields)
	var totalBytes int64
	for _, g := range grids {
		totalBytes += g.Bytes(numFields)
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
