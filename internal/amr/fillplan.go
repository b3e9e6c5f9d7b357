package amr

import (
	"fmt"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// Data-motion plan cache. FillGhostsData and RestrictData used to
// rediscover, for every grid on every step, which sibling overlaps to
// copy, which coarse regions to prolong, and which boundary cells to
// clamp — an O(grids²) scan per level step. The hierarchy's structure
// only changes at regrid/migration boundaries (tracked by the
// per-level generation the message plans already key on), so the
// concrete operation list is precomputed once per generation and
// executed directly on the patches.
//
// The plan is partitioned by destination grid: every operation writes
// only its destination's patch (sibling copies and prolongations
// write ghost cells, clamps write outside-domain cells), and reads
// only source interiors, which no fill operation writes. Distinct
// destinations therefore never race, and solver.Pool can execute the
// per-destination work lists concurrently with bit-identical results.

// fillOp is one planned transfer into a destination grid's patch.
type fillOp struct {
	src    *Grid
	region geom.Box // destination-level index space
	// prolong: src is one level coarser and the region is injected
	// piecewise-constant; otherwise src is a sibling and the region is
	// copied.
	prolong bool
}

// fillDest is the complete ghost-fill work list for one grid, in the
// exact order the scan-based fill applied it: prolongations (coarse
// grid major, ghost-box minor), then sibling copies, then the
// physical-boundary clamp regions.
type fillDest struct {
	g      *Grid
	ops    []fillOp
	clamps geom.BoxList // grown-box cells outside the physical domain
}

// restrictDest groups the fine grids restricting into one parent, in
// level traversal order, so the parent is written by exactly one
// worker and partially-covered coarse cells keep their last writer.
type restrictDest struct {
	parent *Grid
	fines  []*Grid
}

// fillPlan returns the cached ghost-fill plan for level l, rebuilt if
// the hierarchy's structure changed. Safe for concurrent callers (mpx
// ranks build lazily through the same mutex).
func (h *Hierarchy) fillPlan(l int) []fillDest {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planFill).fill
}

// restrictDataPlan returns the cached restriction plan for level l.
func (h *Hierarchy) restrictDataPlan(l int) []restrictDest {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planRestrict).restrictData
}

// buildFillPlan plans level l's ghost fill, one work list per grid in
// level-list order. The grids are cut into contiguous chunks planned
// over the pool, each writing only its own grids' entries. Callers
// hold planMu.
func (h *Hierarchy) buildFillPlan(l int) []fillDest {
	grids := h.Grids(l)
	li := h.indexFor(l)
	var cli *levelIndex
	if l > 0 {
		cli = h.indexFor(l - 1)
	}
	dom := h.DomainAt(l)
	plan := make([]fillDest, len(grids))
	h.pool.ForChunks(len(grids), planChunk, func(_, lo, hi int) {
		scr := getPlanScratch()
		for i := lo; i < hi; i++ {
			plan[i] = h.buildFillDest(grids[i], l, li, cli, dom, scr)
		}
		putPlanScratch(scr)
	})
	return plan
}

// buildFillDest plans one destination grid's ghost-fill work list,
// mirroring one iteration of buildFillPlanScan: prolongation regions
// from every overlapping coarse grid (coarse grid major, ghost box
// minor), sibling overlap copies, then the outside-domain clamp
// boxes. Sources come from the level indexes in level-list order —
// the coarse query box grown.Coarsen(r) overlaps exactly the coarse
// grids whose refined box meets grown — so the op order matches the
// scan's.
func (h *Hierarchy) buildFillDest(g *Grid, l int, li, cli *levelIndex, dom geom.Box, scr *planScratch) fillDest {
	grown := g.Box.Grow(h.NGhost)
	d := fillDest{g: g}
	if l > 0 {
		scr.ghost = geom.SubtractAppend(scr.ghost[:0], grown, g.Box)
		scr.cand = cli.query(grown.Coarsen(h.RefFactor), scr.cand[:0])
		for _, c := range scr.cand {
			refined := c.Box.Refine(h.RefFactor)
			for _, gb := range scr.ghost {
				region := gb.Intersect(refined)
				if region.Empty() {
					continue
				}
				d.ops = append(d.ops, fillOp{src: c, region: region, prolong: true})
			}
		}
	}
	scr.cand = li.query(grown, scr.cand[:0])
	for _, s := range scr.cand {
		if s.ID != g.ID {
			d.ops = append(d.ops, fillOp{src: s, region: grown.Intersect(s.Box)})
		}
	}
	d.clamps = geom.Subtract(grown, dom)
	return d
}

// buildFillPlanScan is the original O(grids²) fill planner, kept as
// the -plancheck baseline: per destination grid, prolongation regions
// from every overlapping coarse grid, sibling overlap copies, then
// the outside-domain clamp boxes — the exact traversal of the
// scan-based fill, so executing the plan reproduces it bit for bit.
func (h *Hierarchy) buildFillPlanScan(l int) []fillDest {
	dom := h.DomainAt(l)
	grids := h.Grids(l)
	plan := make([]fillDest, 0, len(grids))
	for _, g := range grids {
		grown := g.Box.Grow(h.NGhost)
		d := fillDest{g: g}
		if l > 0 {
			ghost := geom.Subtract(grown, g.Box)
			for _, c := range h.Grids(l - 1) {
				refined := c.Box.Refine(h.RefFactor)
				for _, gb := range ghost {
					region := gb.Intersect(refined)
					if region.Empty() {
						continue
					}
					d.ops = append(d.ops, fillOp{src: c, region: region, prolong: true})
				}
			}
		}
		for _, s := range grids {
			if s.ID == g.ID {
				continue
			}
			ov := grown.Intersect(s.Box)
			if ov.Empty() {
				continue
			}
			d.ops = append(d.ops, fillOp{src: s, region: ov})
		}
		d.clamps = geom.Subtract(grown, dom)
		plan = append(plan, d)
	}
	return plan
}

// buildRestrictDataPlan groups level-l grids by parent, preserving
// the level's traversal order within each group.
func (h *Hierarchy) buildRestrictDataPlan(l int) []restrictDest {
	if l <= 0 {
		return nil
	}
	var plan []restrictDest
	idx := make(map[GridID]int)
	for _, g := range h.Grids(l) {
		p := h.Grid(g.Parent)
		if p == nil || p.Patch == nil {
			continue
		}
		j, ok := idx[p.ID]
		if !ok {
			j = len(plan)
			idx[p.ID] = j
			plan = append(plan, restrictDest{parent: p})
		}
		plan[j].fines = append(plan[j].fines, g)
	}
	return plan
}

// runFillDest executes one destination's work list. The boundary
// clamp copies the nearest interior cell; clamping first to the
// domain and then to the grid box equals clamping to the grid box
// alone because every grid box is inside the domain.
func (h *Hierarchy) runFillDest(d *fillDest) {
	for i := range d.ops {
		h.runFillOp(d.g, &d.ops[i])
	}
	for _, cb := range d.clamps {
		for _, f := range h.Fields {
			grid.ClampRegion(d.g.Patch, f, cb, d.g.Box)
		}
	}
}

// runFillOp executes one planned transfer into dst's patch from the
// source grid's patch.
func (h *Hierarchy) runFillOp(dst *Grid, op *fillOp) {
	for _, f := range h.Fields {
		if op.prolong {
			grid.Prolong(dst.Patch, op.src.Patch, f, h.RefFactor, op.region)
		} else {
			grid.CopyRegion(dst.Patch, op.src.Patch, f, op.region)
		}
	}
}

// execFillPlan runs every destination's work list over the pool
// (destinations never alias).
func (h *Hierarchy) execFillPlan(plan []fillDest) {
	h.pool.ForEach(len(plan), func(i int) { h.runFillDest(&plan[i]) })
}

// runRestrictDest restricts every fine grid of one parent group.
func (h *Hierarchy) runRestrictDest(d *restrictDest) {
	for _, g := range d.fines {
		for _, f := range h.Fields {
			grid.Restrict(d.parent.Patch, g.Patch, f, h.RefFactor)
		}
	}
}

// execRestrictPlan runs the restriction groups over the pool (each
// parent belongs to one group).
func (h *Hierarchy) execRestrictPlan(plan []restrictDest) {
	h.pool.ForEach(len(plan), func(i int) { h.runRestrictDest(&plan[i]) })
}

// fillGhostsChecked is the -datacheck oracle: run the planned fill,
// then re-run the scan-based fill from the same pre-state and demand
// bitwise equality. Sources are never written by a fill, so swapping
// each destination's patch for its pre-fill clone and re-running the
// scan reproduces the baseline exactly. The planned result is kept
// (the original patch objects stay installed).
func (h *Hierarchy) fillGhostsChecked(l int, plan []fillDest) {
	grids := h.Grids(l)
	pre := make([]*grid.Patch, len(grids))
	for i, g := range grids {
		pre[i] = g.Patch.Clone()
	}
	h.execFillPlan(plan)
	planned := make([]*grid.Patch, len(grids))
	for i, g := range grids {
		planned[i] = g.Patch
		g.Patch = pre[i]
	}
	h.FillGhostsScan(l)
	for i, g := range grids {
		comparePatches("FillGhosts", l, g.ID, g.Patch, planned[i])
		g.Patch = planned[i]
	}
}

// restrictChecked is the -datacheck oracle for restriction: planned
// vs scan-based, compared bitwise on every written parent.
func (h *Hierarchy) restrictChecked(l int, plan []restrictDest) {
	pre := make([]*grid.Patch, len(plan))
	for i := range plan {
		pre[i] = plan[i].parent.Patch.Clone()
	}
	h.execRestrictPlan(plan)
	planned := make([]*grid.Patch, len(plan))
	for i := range plan {
		planned[i] = plan[i].parent.Patch
		plan[i].parent.Patch = pre[i]
	}
	h.RestrictDataScan(l)
	for i := range plan {
		comparePatches("Restrict", l, plan[i].parent.ID, plan[i].parent.Patch, planned[i])
		plan[i].parent.Patch = planned[i]
	}
}

// comparePatches panics with cell-level detail when the planned data
// motion diverged from the scan baseline (want = scan, got = planned).
func comparePatches(op string, l int, id GridID, want, got *grid.Patch) {
	g := want.Grown()
	for _, f := range want.FieldNames() {
		wf, gf := want.Field(f), got.Field(f)
		for k := range wf {
			if wf[k] != gf[k] {
				panic(fmt.Sprintf(
					"amr: %s datacheck diverged: level %d grid %d field %q cell %v: planned %v, scan %v",
					op, l, id, f, g.IndexAt(k), gf[k], wf[k]))
			}
		}
	}
}
