package dlb

import (
	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
)

// ParallelDLB is the baseline scheme (Lan, Taylor, Bryan; ICPP 2001),
// designed for homogeneous parallel systems: each level's workload is
// "evenly and equally distributed among the processors" — all of
// them, regardless of groups, networks, or traffic. On a distributed
// system this spreads children across machines and pays remote
// parent–child and sibling communication on every fine step, which is
// exactly the overhead the paper measures in Figure 3.
type ParallelDLB struct{}

// Name implements Balancer.
func (ParallelDLB) Name() string { return "parallel-dlb" }

// PlaceChild implements Balancer: children go to the least-loaded
// processor of the whole system.
func (ParallelDLB) PlaceChild(ctx *Context, childBox geom.Box, parent *amr.Grid) int {
	procs := allProcs(ctx)
	return leastLoadedProc(ctx, procs, parent.Level+1)
}

// LocalBalance implements Balancer: even redistribution over all
// processors after every step at every level.
func (ParallelDLB) LocalBalance(ctx *Context, level int) []Migration {
	return balanceOver(ctx, level, allProcs(ctx))
}

// GlobalBalance implements Balancer: the parallel scheme has no
// separate global phase; it simply rebalances level 0 over all
// processors, oblivious to group boundaries and network state.
func (ParallelDLB) GlobalBalance(ctx *Context) GlobalDecision {
	migs := balanceOver(ctx, 0, allProcs(ctx))
	return GlobalDecision{
		Evaluated:  false,
		Invoked:    len(migs) > 0,
		Migrations: migs,
		MovedBytes: migratedBytes(migs),
	}
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
	return sortedCopy(ctx.Sys.ProcsInGroup(g))
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
