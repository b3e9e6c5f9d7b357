package amr

import (
	"slices"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// RegridParams controls hierarchy reconstruction.
type RegridParams struct {
	// Cluster are the Berger–Rigoutsos parameters.
	Cluster cluster.Params
	// Buffer expands every flagged cell by this Chebyshev radius
	// before clustering, so features stay inside their fine grids for
	// a few steps between regrids.
	Buffer int
}

// DefaultRegridParams returns typical SAMR regrid settings.
func DefaultRegridParams() RegridParams {
	return RegridParams{Cluster: cluster.DefaultParams(), Buffer: 1}
}

// Flagger marks the level-l cells needing refinement. The flag field
// spans the bounding box of level l's grids; implementations flag by
// rows via f.SetRows and Row.Set and may consult the hierarchy's patch data.
type Flagger func(level int, f *cluster.FlagField)

// Placer chooses the owning processor for a newly created child grid.
// The distributed DLB places children in the parent's group; the
// parallel DLB spreads them over all processors.
type Placer func(childBox geom.Box, parent *Grid) int

// RegridAll rebuilds every level deeper than base: flags are gathered
// on each level in turn, clustered into boxes, intersected with the
// existing level's grids (enforcing proper nesting), refined, and
// instantiated as new child grids. Field data on new grids is copied
// from any old same-level data that overlaps, so the solution survives
// regridding, and prolonged from the coarse level everywhere else; no
// cell is written twice. It returns the number of grids created.
//
// Every overlap is found through a level index (spatialindex.go), and
// every answer comes in level-list order, so children are made, placed
// and initialised in the order of a scan of parents × boxes.
func (h *Hierarchy) RegridAll(base int, flag Flagger, p RegridParams, place Placer) int {
	// Capture the index of each old fine level before destroying it: it
	// keeps the old grids, at their old positions, for the data copy.
	old := make([]*levelIndex, h.MaxLevel+1)
	if h.WithData {
		for l := base + 1; l <= h.MaxLevel; l++ {
			old[l] = h.currentIndex(l)
		}
	}
	h.ClearLevelsFrom(base + 1)

	created := 0
	for l := base; l < h.MaxLevel; l++ {
		parents := h.Grids(l)
		if len(parents) == 0 {
			break
		}
		f := h.FlagFieldFor(l)
		if f == nil {
			break
		}
		flag(l, f)
		if f.Count() == 0 {
			break
		}
		f.Dilate(p.Buffer)
		boxes := cluster.Cluster(f, p.Cluster)
		li := h.currentIndex(l)
		offs, boxOf := h.parentBoxPairs(li, parents, boxes)
		// Children are created sequentially (AddGrid mutates the
		// hierarchy) but their data is initialised afterwards in one
		// parallel batch.
		var pending []*Grid
		for i, parent := range parents {
			for _, b := range boxOf[offs[i]:offs[i+1]] {
				childBox := boxes[b].Intersect(parent.Box).Refine(h.RefFactor)
				owner := parent.Owner
				if place != nil {
					owner = place(childBox, parent)
				}
				child := h.AddGrid(l+1, childBox, owner, parent.ID)
				if h.WithData {
					pending = append(pending, child)
				}
			}
		}
		created += len(boxOf)
		h.initChildren(pending, li, old[l+1])
		old[l+1] = nil // the old level's grids are garbage from here
		if len(boxOf) == 0 {
			break
		}
		h.SortLevel(l + 1)
	}
	return created
}

// parentBoxPairs asks level index li which parents each cluster box
// overlaps and groups the pairs by parent: boxOf[offs[i]:offs[i+1]]
// are the indices of the boxes overlapping parents[i], ascending —
// parent-major, box-minor, the order of a scan of parents × boxes. The
// grouping is levelIndex.build's count, prefix sum, fill.
func (h *Hierarchy) parentBoxPairs(li *levelIndex, parents []*Grid, boxes geom.BoxList) (offs, boxOf []int32) {
	hits := h.regridArena[:0] // each box's parents, box after box
	ends := make([]int32, len(boxes))
	offs = make([]int32, len(parents)+1)
	for b, box := range boxes {
		start := len(hits)
		hits = li.query(box, hits)
		for _, g := range hits[start:] {
			offs[g.pos+1]++
		}
		ends[b] = int32(len(hits))
	}
	for i := range parents {
		offs[i+1] += offs[i]
	}
	boxOf = make([]int32, len(hits))
	next := slices.Clone(offs[:len(parents)])
	start := int32(0)
	for b, end := range ends {
		for _, g := range hits[start:end] {
			boxOf[next[g.pos]] = int32(b)
			next[g.pos]++
		}
		start = end
	}
	clear(hits)
	h.regridArena = hits
	return offs, boxOf
}

// initChildren initialises the new children's data in one parallel
// batch. Their sources are gathered first, serially, into one arena
// (h.regridArena): for each child, the grids of the coarse level (index
// li) and of the old same level (index oli, built over the level before
// it was cleared) that overlap its grown box, in level-list order. A
// pool task then only reads the arena, and writes only its own child's
// patch, which no other task reads.
func (h *Hierarchy) initChildren(children []*Grid, li, oli *levelIndex) {
	if len(children) == 0 {
		return
	}
	srcs := h.regridArena[:0]
	// Child i's coarse sources are srcs[cuts[2i]:cuts[2i+1]], its old
	// ones srcs[cuts[2i+1]:cuts[2i+2]].
	cuts := make([]int32, 2*len(children)+1)
	for i, c := range children {
		grown := c.Patch.Grown()
		srcs = li.query(grown.Coarsen(h.RefFactor), srcs)
		cuts[2*i+1] = int32(len(srcs))
		srcs = oli.query(grown, srcs)
		cuts[2*i+2] = int32(len(srcs))
	}
	h.pool.ForEach(len(children), func(i int) {
		h.initChildData(children[i], srcs[cuts[2*i]:cuts[2*i+1]], srcs[cuts[2*i+1]:cuts[2*i+2]])
	})
	clear(srcs)
	h.regridArena = srcs
}

// initChildData fills a new child grid, writing each cell once: the
// old same-level grids that overlap its grown box copy their data (the
// old solution is more accurate than prolonged data), and the coarse
// grids that overlap it prolong into what the old grids leave. Its edge
// and corner ghosts are then zeroed: no kernel reads them and no fill
// writes them, and on an mpx worker an old grid may be a stale replica,
// so a copied value would make the patch depend on the transport.
func (h *Hierarchy) initChildData(child *Grid, coarse, old []*Grid) {
	grown := child.Patch.Grown()
	scr := getPlanScratch()
	scr.covered = scr.covered[:0]
	for _, og := range old {
		scr.covered = append(scr.covered, og.Box)
	}
	left := subtractList(grown, scr.covered, scr)
	for _, c := range coarse {
		refined := c.Box.Refine(h.RefFactor)
		for _, b := range left {
			region := b.Intersect(refined)
			if region.Empty() {
				continue
			}
			for _, f := range h.Fields {
				grid.Prolong(child.Patch, c.Patch, f, h.RefFactor, region)
			}
		}
	}
	putPlanScratch(scr)
	for _, og := range old {
		region := grown.Intersect(og.Box)
		for _, f := range h.Fields {
			grid.CopyRegion(child.Patch, og.Patch, f, region)
		}
	}
	child.Patch.ZeroEdges()
}

// FlagWhereGradient flags every level-l cell whose solution gradient
// (max absolute one-sided difference of the named field over the
// three dimensions) exceeds the threshold — data-driven refinement,
// the criterion production SAMR codes use, as an alternative to the
// geometric schedules of the workload drivers. Only data-carrying
// hierarchies can use it.
func (h *Hierarchy) FlagWhereGradient(level int, field string, threshold float64, f *cluster.FlagField) {
	if !h.WithData {
		panic("amr.FlagWhereGradient: needs field data")
	}
	for _, g := range h.Grids(level) {
		q := g.Patch.Field(field)
		gb := g.Patch.Grown()
		s := gb.Shape()
		stride := [3]int{1, s[0], s[0] * s[1]}
		f.SetRows(g.Box, func(row cluster.Row, x0, y, z int) {
			base := (x0 - gb.Lo[0]) + stride[1]*(y-gb.Lo[1]) + stride[2]*(z-gb.Lo[2])
			for k := range row.Len() {
				if steeperThan(q, base+k, stride, threshold) {
					row.Set(k)
				}
			}
		})
	}
}

// steeperThan reports whether some one-sided difference of q at
// offset off, along any of the three strides, exceeds the threshold.
func steeperThan(q []float64, off int, stride [3]int, threshold float64) bool {
	for d := 0; d < 3; d++ {
		dv := q[off+stride[d]] - q[off]
		if dv < 0 {
			dv = -dv
		}
		if dv > threshold {
			return true
		}
		dv = q[off] - q[off-stride[d]]
		if dv < 0 {
			dv = -dv
		}
		if dv > threshold {
			return true
		}
	}
	return false
}
