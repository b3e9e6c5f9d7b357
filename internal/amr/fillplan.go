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
	// be swapped (CheckFill) or absent (another shard's grids).
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

// fillDest is the complete ghost-fill work list for one grid: its six
// face slabs, the ghost cells a 7-point stencil reads. Edge and corner
// ghosts are never written. It writes each face cell once:
// prolongations (coarse grid major, then the face cells no sibling
// covers, face by face) fill only what the sibling copies that follow
// leave, and the clamp regions only what lies outside the physical
// domain. The ops are pairwise disjoint, so their order changes no bit.
type fillDest struct {
	g      *Grid
	ops    []fillOp
	clamps geom.BoxList // face cells outside the physical domain
}

// fillPlan returns the cached ghost-fill plan for level l, rebuilt if
// the hierarchy's structure changed. Safe for concurrent callers (mpx
// ranks build lazily through the same mutex).
func (h *Hierarchy) fillPlan(l int) []fillDest {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planFill).fill
}

// restrictPlan returns level l's restriction plan, level l−1's child
// table: level l's grids by parent ID, then in level order.
func (h *Hierarchy) restrictPlan(l int) []*Grid {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.childTableFor(l - 1).kids
}

// parentRuns calls visit for each run of one parent in kids, a
// restriction plan: the parent, resolved once per run, and the plan
// entries lo..hi−1 under it. A run whose parent is gone is skipped.
func (h *Hierarchy) parentRuns(kids []*Grid, visit func(p *Grid, lo, hi int)) {
	for lo := 0; lo < len(kids); {
		hi := lo + 1
		for hi < len(kids) && kids[hi].Parent == kids[lo].Parent {
			hi++
		}
		if p := h.Grid(kids[lo].Parent); p != nil {
			visit(p, lo, hi)
		}
		lo = hi
	}
}

// planFillDest finishes destination g's fill work list from the
// sibling copies planDest kept (sibs, their regions in scr.copies),
// mirroring one iteration of buildFillPlanScan: the cells of its six
// face slabs (geom.AppendFaces), the only ghost cells a 7-point stencil
// reads, that no copy covers are prolonged from every coarse grid whose
// refined box meets them, the copies follow, and the face cells outside
// the domain are clamped. The coarse query box grown.Coarsen(r)
// overlaps exactly the coarse grids whose refined box meets grown, in
// level-list order, so the op order matches the scan's. The faces, ops
// and clamp boxes grow in pooled scratch and are then allocated once,
// at their exact length.
func (h *Hierarchy) planFillDest(g *Grid, grown geom.Box, sibs []*Grid, l int, cli *levelIndex, dom geom.Box, scr *planScratch) fillDest {
	scr.faces = geom.AppendFaces(scr.faces[:0], g.Box, h.NGhost)
	ops := scr.ops[:0]
	if l > 0 {
		scr.left = scr.left[:0]
		for _, f := range scr.faces {
			scr.left = append(scr.left, subtractList(f, scr.copies, scr)...)
		}
		if len(scr.left) > 0 {
			scr.coarse = cli.query(grown.Coarsen(h.RefFactor), scr.coarse[:0], scr)
			for _, c := range scr.coarse {
				refined := c.Box.Refine(h.RefFactor)
				for _, b := range scr.left {
					if region := b.Intersect(refined); !region.Empty() {
						ops = append(ops, h.newFillOp(g, c, region, true))
					}
				}
			}
		}
	}
	for i, s := range sibs {
		ops = append(ops, h.newFillOp(g, s, scr.copies[i], false))
	}
	d := fillDest{g: g}
	if len(ops) > 0 {
		d.ops = slices.Clone(ops)
	}
	scr.ops = ops
	scr.clamps = scr.clamps[:0]
	for _, f := range scr.faces {
		scr.clamps = geom.SubtractAppend(scr.clamps, f, dom)
	}
	if len(scr.clamps) > 0 {
		d.clamps = slices.Clone(scr.clamps)
	}
	return d
}

// buildFillPlanScan is the original O(grids²) fill planner, kept as
// the -check=plan baseline: per destination grid, its face slabs (cut
// from g.Box grown along one axis at a time), the overlap of every
// sibling with each, the face cells they leave (geom.SubtractList,
// which assumes nothing of the overlaps) prolonged from every coarse
// grid that covers them, the sibling copies, then the outside-domain
// clamp boxes. It assumes nothing of the level: a sibling that
// overlaps g.Box can meet two faces and gives a copy for each, where
// the indexed plan gives one, so -check=plan catches such a level.
func (h *Hierarchy) buildFillPlanScan(l int) []fillDest {
	dom := h.DomainAt(l)
	grids := h.Grids(l)
	plan := make([]fillDest, 0, len(grids))
	for _, g := range grids {
		var faces geom.BoxList
		for d := range geom.Dims {
			faces = append(faces, geom.Subtract(g.Box.GrowDim(d, h.NGhost, h.NGhost), g.Box)...)
		}
		d := fillDest{g: g}
		var copies []fillOp
		var covered geom.BoxList
		for _, s := range grids {
			if s.ID == g.ID {
				continue
			}
			for _, f := range faces {
				if ov := f.Intersect(s.Box); !ov.Empty() {
					covered = append(covered, ov)
					copies = append(copies, h.newFillOp(g, s, ov, false))
				}
			}
		}
		if l > 0 {
			var left geom.BoxList
			for _, f := range faces {
				left = append(left, geom.SubtractList(f, covered)...)
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
		for _, f := range faces {
			d.clamps = append(d.clamps, geom.Subtract(f, dom)...)
		}
		plan = append(plan, d)
	}
	return plan
}

// clampFaces writes d's face cells outside the physical domain: each
// copies the nearest interior cell. Clamping first to the domain and
// then to the grid box equals clamping to the grid box alone because
// every grid box is inside the domain.
func (h *Hierarchy) clampFaces(d *fillDest) {
	for _, cb := range d.clamps {
		for _, f := range h.Fields {
			grid.ClampRegion(d.g.Patch, f, cb, d.g.Box)
		}
	}
}

// runFillOp executes one planned transfer into dst from the source
// grid's patch, field by field. Every patch of the hierarchy carries
// the same fields, so the k-th field of one is the k-th of the other.
func (h *Hierarchy) runFillOp(dst *grid.Patch, op *fillOp) {
	src, from := op.src.Patch, op.rows(op.from)
	for k := range h.Fields {
		h.applyFillOp(dst.FieldAt(k), op, src.FieldAt(k), from)
	}
}

// applyFillOp writes one field of op's region into df, that field's
// storage in the destination patch, at op.to, reading sf laid out by
// from: the source patch's field at op.from, or a message's dense
// copy of what the op reads. It is the one place a planned region is
// written, on every data path and at child init.
func (h *Hierarchy) applyFillOp(df []float64, op *fillOp, sf []float64, from grid.Rows) {
	if op.prolong {
		grid.ProlongRows(df, op.rows(op.to), sf, from, h.RefFactor, op.region().Lo)
		return
	}
	grid.CopyRows(df, op.rows(op.to), sf, from)
}

// CheckFill runs exec, an executor of level l's planned ghost fill (the
// shared-memory one, or the wire's), and returns whether it completed;
// a wire phase that detached did not, and its caller falls back. With
// the -check=data oracle on, a completed fill is checked against
// FillGhostsScan (see checkData).
func (h *Hierarchy) CheckFill(l int, exec func() bool) bool {
	return h.checkData("FillGhosts", l, exec, func() { h.FillGhostsScan(l) })
}

// CheckRestrict is CheckFill for level l's planned restriction, checked
// against RestrictDataScan on every grid of level l−1.
func (h *Hierarchy) CheckRestrict(l int, exec func() bool) bool {
	return h.checkData("Restrict", l-1, exec, func() { h.RestrictDataScan(l) })
}

// checkData runs exec, an exchange that writes the patches of level w,
// and with the -check=data oracle on checks a completed one: scan
// re-runs the exchange from the same pre-state and must agree bitwise.
// An exchange reads only what it does not write, so swapping each
// level-w patch for its pre-exchange clone and running scan reproduces
// the baseline exactly. The executed result is kept (the original patch
// objects stay installed).
func (h *Hierarchy) checkData(op string, w int, exec func() bool, scan func()) bool {
	if !h.dataCheck {
		return exec()
	}
	grids := h.Grids(w)
	pre := make([]*grid.Patch, len(grids))
	for i, g := range grids {
		pre[i] = g.Patch.Clone()
	}
	if !exec() {
		return false
	}
	planned := make([]*grid.Patch, len(grids))
	for i, g := range grids {
		planned[i] = g.Patch
		g.Patch = pre[i]
	}
	scan()
	for i, g := range grids {
		comparePatches(op, w, g.ID, g.Patch, planned[i])
		g.Patch = planned[i]
	}
	return true
}

// comparePatches panics with cell-level detail when the planned data
// motion diverged from the scan baseline (want = scan, got = planned)
// on a cell a kernel reads (grid.StencilDiff).
func comparePatches(op string, l int, id GridID, want, got *grid.Patch) {
	if f, k, ok := grid.StencilDiff(want, got); ok {
		panic(fmt.Sprintf(
			"amr: %s datacheck diverged: level %d grid %d field %q cell %v: planned %v, scan %v",
			op, l, id, f, want.Grown().IndexAt(k), got.Field(f)[k], want.Field(f)[k]))
	}
}
