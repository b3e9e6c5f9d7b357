package amr

import (
	"fmt"
	"slices"

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
// It is 64 bytes: a level's plan holds one per overlap, and it is
// rebuilt at every regrid and migration.
type fillOp struct {
	src *Grid
	// lo and shape are the region, in destination-level index space.
	lo, shape [3]int32
	// to places the region's rows in the destination's storage, from
	// what the op reads in the source's: the region itself for a copy,
	// its coarse footprint for a prolongation. Both are computed from
	// boxes when the plan is built, so running the op resolves nothing;
	// the plan holds no patch storage, because the patches it names may
	// be swapped (fillGhostsChecked) or absent (another shard's grids).
	to, from rowsAt
	// prolong: src is one level coarser and the region is injected
	// piecewise-constant; otherwise src is a sibling and the region is
	// copied.
	prolong bool
}

// rowsAt is the start and strides of a grid.Rows, whose extents are
// the op's shape.
type rowsAt struct{ base, sy, sz int32 }

// newFillOp plans the transfer of region into dst from src: a copy
// from a sibling, or a prolongation from a coarse grid whose refined
// box holds the region.
func (h *Hierarchy) newFillOp(dst, src *Grid, region geom.Box, prolong bool) fillOp {
	read := region
	if prolong {
		read = region.Coarsen(h.RefFactor)
	}
	to := grid.RowsOf(dst.Box.Grow(h.NGhost), region)
	from := grid.RowsOf(src.Box.Grow(h.NGhost), read)
	return fillOp{
		src:     src,
		lo:      [3]int32{narrow(region.Lo[0]), narrow(region.Lo[1]), narrow(region.Lo[2])},
		shape:   [3]int32{narrow(to.N), narrow(to.NY), narrow(to.NZ)},
		to:      rowsAt{narrow(to.Base), narrow(to.SY), narrow(to.SZ)},
		from:    rowsAt{narrow(from.Base), narrow(from.SY), narrow(from.SZ)},
		prolong: prolong,
	}
}

// narrow returns v as an int32, panicking if it does not fit: a patch
// of 2³¹ cells would be 16 GiB per field.
func narrow(v int) int32 {
	if int(int32(v)) != v {
		panic(fmt.Sprintf("amr: fill plan offset %d overflows int32", v))
	}
	return int32(v)
}

// region returns the box the op writes.
func (op *fillOp) region() geom.Box {
	lo := geom.Index{int(op.lo[0]), int(op.lo[1]), int(op.lo[2])}
	return geom.Box{Lo: lo, Hi: lo.Add(geom.Index{int(op.shape[0]) - 1, int(op.shape[1]) - 1, int(op.shape[2]) - 1})}
}

// rows lays the op's shape out at a.
func (op *fillOp) rows(a rowsAt) grid.Rows {
	return grid.Rows{
		Base: int(a.base), SY: int(a.sy), SZ: int(a.sz),
		N: int(op.shape[0]), NY: int(op.shape[1]), NZ: int(op.shape[2]),
	}
}

// fillDest is the complete ghost-fill work list for one grid. It
// writes each cell once: prolongations (coarse grid major, then the
// ghost cells no sibling covers, slab by slab) fill only what the
// sibling copies that follow leave, and the clamp regions only what
// lies outside the physical domain. The ops are pairwise disjoint, so
// their order changes no bit.
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
// mirroring one iteration of buildFillPlanScan. The siblings come from
// the level index in level-list order; their overlaps are subtracted
// from each ghost slab, and what is left is prolonged from every
// coarse grid whose refined box meets it. The coarse query box
// grown.Coarsen(r) overlaps exactly the coarse grids whose refined box
// meets grown, in level-list order, so the op order matches the
// scan's. The ops and clamp boxes grow in pooled scratch and are then
// allocated once, at their exact length.
func (h *Hierarchy) buildFillDest(g *Grid, l int, li, cli *levelIndex, dom geom.Box, scr *planScratch) fillDest {
	grown := g.Box.Grow(h.NGhost)
	ops := scr.ops[:0]
	scr.cand2 = li.query(grown, scr.cand2[:0])
	if l > 0 {
		scr.covered = scr.covered[:0]
		for _, s := range scr.cand2 {
			if s.ID != g.ID {
				scr.covered = append(scr.covered, grown.Intersect(s.Box))
			}
		}
		scr.ghost = geom.SubtractAppend(scr.ghost[:0], grown, g.Box)
		scr.left = scr.left[:0]
		for _, gb := range scr.ghost {
			scr.left = append(scr.left, subtractList(gb, scr.covered, scr)...)
		}
		if len(scr.left) > 0 {
			scr.cand = cli.query(grown.Coarsen(h.RefFactor), scr.cand[:0])
			for _, c := range scr.cand {
				refined := c.Box.Refine(h.RefFactor)
				for _, b := range scr.left {
					if region := b.Intersect(refined); !region.Empty() {
						ops = append(ops, h.newFillOp(g, c, region, true))
					}
				}
			}
		}
	}
	for _, s := range scr.cand2 {
		if s.ID != g.ID {
			ops = append(ops, h.newFillOp(g, s, grown.Intersect(s.Box), false))
		}
	}
	d := fillDest{g: g}
	if len(ops) > 0 {
		d.ops = slices.Clone(ops)
	}
	scr.ops = ops
	if scr.ghost = geom.SubtractAppend(scr.ghost[:0], grown, dom); len(scr.ghost) > 0 {
		d.clamps = slices.Clone(scr.ghost)
	}
	return d
}

// buildFillPlanScan is the original O(grids²) fill planner, kept as
// the -plancheck baseline: per destination grid, the overlap of every
// sibling, the ghost cells they leave (geom.SubtractList, which
// assumes nothing of the overlaps) prolonged from every coarse grid
// that covers them, the sibling copies, then the outside-domain clamp
// boxes.
func (h *Hierarchy) buildFillPlanScan(l int) []fillDest {
	dom := h.DomainAt(l)
	grids := h.Grids(l)
	plan := make([]fillDest, 0, len(grids))
	for _, g := range grids {
		grown := g.Box.Grow(h.NGhost)
		d := fillDest{g: g}
		var copies []fillOp
		var covered geom.BoxList
		for _, s := range grids {
			if s.ID == g.ID {
				continue
			}
			ov := grown.Intersect(s.Box)
			if ov.Empty() {
				continue
			}
			covered = append(covered, ov)
			copies = append(copies, h.newFillOp(g, s, ov, false))
		}
		if l > 0 {
			var left geom.BoxList
			for _, gb := range geom.Subtract(grown, g.Box) {
				left = append(left, geom.SubtractList(gb, covered)...)
			}
			for _, c := range h.Grids(l - 1) {
				refined := c.Box.Refine(h.RefFactor)
				for _, b := range left {
					if region := b.Intersect(refined); !region.Empty() {
						d.ops = append(d.ops, h.newFillOp(g, c, region, true))
					}
				}
			}
		}
		d.ops = append(d.ops, copies...)
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
	dst := d.g.Patch
	for i := range d.ops {
		h.runFillOp(dst, &d.ops[i])
	}
	for _, cb := range d.clamps {
		for _, f := range h.Fields {
			grid.ClampRegion(dst, f, cb, d.g.Box)
		}
	}
}

// runFillOp executes one planned transfer into dst from the source
// grid's patch, field by field over the op's layouts. Every patch of
// the hierarchy carries the same fields, so the k-th field of one is
// the k-th of the other.
func (h *Hierarchy) runFillOp(dst *grid.Patch, op *fillOp) {
	src := op.src.Patch
	to, from := op.rows(op.to), op.rows(op.from)
	if op.prolong {
		lo := op.region().Lo
		for k := range h.Fields {
			grid.ProlongRows(dst.FieldAt(k), to, src.FieldAt(k), from, h.RefFactor, lo)
		}
		return
	}
	for k := range h.Fields {
		grid.CopyRows(dst.FieldAt(k), to, src.FieldAt(k), from)
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
