package amr

import (
	"fmt"
	"slices"
)

// The -check=plan oracle, in the idiom of -check=ledger and
// -check=data: every time a cached plan is served, re-derive the same
// plan with the retained O(n²) scan planners from the current
// structure and demand bitwise equality. This catches both
// indexed-query bugs (a bucket query missing a neighbor the scan would
// have found) and a structural mutation that forgot to bump its level's
// generation (the stale entry is served again and diverges from the
// fresh scan). A processor-pair table is re-derived from the scan plan
// and the current owners by naivePairs, which catches an owner change
// the table missed. Structure-only and deterministic, so unlike
// -check=data it is safe on multi-process worker shards.

// verifyPlans checks every built plan kind of level l against its scan
// baseline, panicking with entry-level detail on divergence. Callers
// hold planMu.
func (h *Hierarchy) verifyPlans(l int, c *planCache) {
	if c.built&planMsg != 0 {
		ghost := h.GhostPlanScan(l)
		comparePlanMessages("GhostPlan", l, ghost, c.ghost)
		if c.built&planGhostXfer != 0 {
			compareTransferTables("GhostTransfers", l, naivePairs(h, ghost), c.ghostXfer)
		}
	}
	if c.built&planRestrictXfer != 0 {
		compareTransferTables("RestrictTransfers", l, naivePairs(h, h.restrictScan(l)), c.restrictXfer)
	}
	if c.built&planFill != 0 {
		compareFillPlans(l, h.buildFillPlanScan(l), c.fill)
	}
	if c.built&planInterface != 0 {
		compareInterfacePlans(l, h.buildInterfacePlan(l, nil, nil), c.iface)
	}
}

// comparePlanMessages panics when the cached message plan diverged
// from the scan baseline (want = scan, got = cached).
func comparePlanMessages(op string, l int, want, got []Message) {
	if len(want) != len(got) {
		panic(fmt.Sprintf(
			"amr: %s plancheck diverged: level %d: cached %d messages, scan %d",
			op, l, len(got), len(want)))
	}
	for i := range want {
		if want[i] != got[i] {
			panic(fmt.Sprintf(
				"amr: %s plancheck diverged: level %d message %d: cached %+v, scan %+v",
				op, l, i, got[i], want[i]))
		}
	}
}

// restrictScan is the level-list walk RestrictTransfers is checked
// against: one message per level-l grid to its parent, carrying its
// coarsened cells.
func (h *Hierarchy) restrictScan(l int) []Message {
	if l <= 0 {
		return nil
	}
	var out []Message
	bytesPerCell := int64(len(h.Fields)) * 8
	r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
	for _, g := range h.Grids(l) {
		if p := h.Grid(g.Parent); p != nil {
			out = append(out, Message{Src: g.ID, Dst: p.ID, Bytes: g.NumCells() / r3 * bytesPerCell})
		}
	}
	return out
}

// naivePairs is the per-message form of aggregate: two grid lookups and
// one map update per message, then the (src, dst) sort.
func naivePairs(h *Hierarchy, msgs []Message) []Transfer {
	type pair struct{ src, dst int }
	sum := make(map[pair]int64)
	for _, m := range msgs {
		src, dst := h.Grid(m.Src).Owner, h.Grid(m.Dst).Owner
		if src != dst {
			sum[pair{src, dst}] += m.Bytes
		}
	}
	var out []Transfer
	for p, b := range sum {
		out = append(out, Transfer{p.src, p.dst, b})
	}
	slices.SortFunc(out, byPair)
	return out
}

// byPair orders transfers by (Src, Dst).
func byPair(a, b Transfer) int {
	if a.Src != b.Src {
		return a.Src - b.Src
	}
	return a.Dst - b.Dst
}

// compareTransferTables panics when a cached processor-pair table
// diverged from the naive aggregation of the scan plan under the
// current owners.
func compareTransferTables(op string, l int, want, got []Transfer) {
	if len(want) != len(got) {
		panic(fmt.Sprintf(
			"amr: %s plancheck diverged: level %d: cached %d pairs, naive %d",
			op, l, len(got), len(want)))
	}
	for i := range want {
		if want[i] != got[i] {
			panic(fmt.Sprintf(
				"amr: %s plancheck diverged: level %d pair %d: cached %+v, naive %+v",
				op, l, i, got[i], want[i]))
		}
	}
}

// compareFillPlans panics when the cached fill plan diverged from the
// scan baseline.
func compareFillPlans(l int, want, got []fillDest) {
	if len(want) != len(got) {
		panic(fmt.Sprintf(
			"amr: FillPlan plancheck diverged: level %d: cached %d destinations, scan %d",
			l, len(got), len(want)))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if w.g != g.g {
			panic(fmt.Sprintf(
				"amr: FillPlan plancheck diverged: level %d destination %d: cached grid %d, scan grid %d",
				l, i, g.g.ID, w.g.ID))
		}
		if len(w.ops) != len(g.ops) {
			panic(fmt.Sprintf(
				"amr: FillPlan plancheck diverged: level %d grid %d: cached %d ops, scan %d",
				l, w.g.ID, len(g.ops), len(w.ops)))
		}
		for j := range w.ops {
			if w.ops[j] != g.ops[j] {
				panic(fmt.Sprintf(
					"amr: FillPlan plancheck diverged: level %d grid %d op %d: cached %+v, scan %+v",
					l, w.g.ID, j, g.ops[j], w.ops[j]))
			}
		}
		if len(w.clamps) != len(g.clamps) {
			panic(fmt.Sprintf(
				"amr: FillPlan plancheck diverged: level %d grid %d: cached %d clamps, scan %d",
				l, w.g.ID, len(g.clamps), len(w.clamps)))
		}
		for j := range w.clamps {
			if w.clamps[j] != g.clamps[j] {
				panic(fmt.Sprintf(
					"amr: FillPlan plancheck diverged: level %d grid %d clamp %d: cached %v, scan %v",
					l, w.g.ID, j, g.clamps[j], w.clamps[j]))
			}
		}
	}
}

// compareInterfacePlans panics when the cached interface plan diverged
// from a from-scratch build that scans whole levels instead of
// querying the indexes: the level lists the work lists are addressed
// by, the face table row by row, and both per-grid lists.
func compareInterfacePlans(l int, want, got *interfacePlan) {
	if !slices.Equal(want.fine, got.fine) || !slices.Equal(want.coarse, got.coarse) {
		panic(fmt.Sprintf(
			"amr: InterfacePlan plancheck diverged: level %d: cached plan was built for other level lists (%d fine, %d coarse grids; now %d, %d)",
			l, len(got.fine), len(got.coarse), len(want.fine), len(want.coarse)))
	}
	if len(want.faces) != len(got.faces) {
		panic(fmt.Sprintf(
			"amr: InterfacePlan plancheck diverged: level %d: cached %d faces, scan %d",
			l, len(got.faces), len(want.faces)))
	}
	for j := range want.faces {
		if want.faces[j] != got.faces[j] {
			panic(fmt.Sprintf(
				"amr: InterfacePlan plancheck diverged: level %d face %d: cached %+v, scan %+v",
				l, j, got.faces[j], want.faces[j]))
		}
	}
	if !slices.Equal(want.fineStart, got.fineStart) {
		panic(fmt.Sprintf(
			"amr: InterfacePlan plancheck diverged: level %d: cached fine-grid lists %v, scan %v",
			l, got.fineStart, want.fineStart))
	}
	if !slices.Equal(want.coarseStart, got.coarseStart) || !slices.Equal(want.coarseRefs, got.coarseRefs) {
		panic(fmt.Sprintf(
			"amr: InterfacePlan plancheck diverged: level %d: cached coarse-grid lists differ from the scan's (%d refs vs %d)",
			l, len(got.coarseRefs), len(want.coarseRefs)))
	}
}
