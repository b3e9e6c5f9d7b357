package dlb

import (
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
)

// CurveKind selects the space-filling curve an SFCDLB orders grids
// by. The zero value is the Morton curve, preserving the behaviour of
// the original SFC scheme.
type CurveKind int

const (
	// CurveMorton orders grids by the Z-order key of their centroid.
	CurveMorton CurveKind = iota
	// CurveHilbert orders grids by the Hilbert key of their centroid:
	// consecutive curve positions are face neighbours, so contiguous
	// runs are spatially tighter than Morton runs.
	CurveHilbert
)

// SFCDLB is a locality-preserving variant of the distributed scheme:
// its local phase partitions each group's grids along a space-filling
// curve into contiguous, performance-weighted runs, instead of
// greedily migrating grids between load extremes. Contiguous curve
// runs are spatially compact, so neighbouring grids tend to share a
// processor and the sibling exchange stays local — the partitioning
// style later AMR frameworks adopted. Placement and the global phase
// are inherited from DistributedDLB, so the comparison against the
// paper's scheme isolates the local-phase policy. Curve selects the
// ordering (Morton by default, Hilbert for tighter runs).
type SFCDLB struct {
	Curve CurveKind
}

// Name implements Balancer.
func (s SFCDLB) Name() string {
	if s.Curve == CurveHilbert {
		return "hilbert-sfc-dlb"
	}
	return "sfc-dlb"
}

// PlaceChild implements Balancer (same policy as the distributed
// scheme: children stay in the parent's group).
func (s SFCDLB) PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int {
	return DistributedDLB{}.PlaceChild(ctx, childBox, parent)
}

// GlobalBalance implements Balancer via the paper's global phase.
func (s SFCDLB) GlobalBalance(ctx *Context) GlobalDecision {
	return DistributedDLB{}.GlobalBalance(ctx)
}

// LocalBalance implements Balancer: within each group, grids at the
// level are sorted by the curve key of their centroid and dealt out
// as contiguous runs sized proportionally to processor performance.
// Runs are dealt over groupProcs — the alive, admitted processors —
// so a curve share is never assigned to a failed processor (the same
// set the paper's balanceOver partitions over).
func (s SFCDLB) LocalBalance(ctx *Context, level int) []Migration {
	var out []Migration
	for g := 0; g < ctx.Sys.NumGroups(); g++ {
		out = append(out, sfcPartition(ctx, level, groupProcs(ctx, g), s.keyOf)...)
	}
	return out
}

// keyOf returns the curve key of a box's centroid (doubled to stay
// integral).
func (s SFCDLB) keyOf(b geom.Box) uint64 {
	if s.Curve == CurveHilbert {
		return b.Lo.Add(b.Hi).HilbertKey()
	}
	return mortonOf(b)
}

// mortonOf returns the Morton key of a box's centroid (doubled to
// stay integral).
func mortonOf(b geom.Box) uint64 {
	return b.Lo.Add(b.Hi).MortonKey()
}

// sfcPartition assigns the procs' grids at the level along the curve.
func sfcPartition(ctx *Context, level int, procs []int, keyOf func(geom.Box) uint64) []Migration {
	if len(procs) < 2 {
		return nil
	}
	inSet := make(map[int]bool, len(procs))
	for _, p := range procs {
		inSet[p] = true
	}
	var grids []*amr.Grid
	for _, g := range ctx.H.Grids(level) {
		if inSet[g.Owner] {
			grids = append(grids, g)
		}
	}
	if len(grids) == 0 {
		return nil
	}
	sort.Slice(grids, func(i, j int) bool {
		ki := keyOf(grids[i].Box)
		kj := keyOf(grids[j].Box)
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
