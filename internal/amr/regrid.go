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
// rows via f.SetRows and may consult the hierarchy's patch data.
type Flagger func(level int, f *cluster.FlagField)

// Placer chooses the owning processor for a newly created child grid.
// The distributed DLB places children in the parent's group; the
// parallel DLB spreads them over all processors.
type Placer func(childBox geom.Box, parent *Grid) int

// RegridAll rebuilds every level deeper than base: flags are gathered
// on each level in turn, clustered into boxes, intersected with the
// existing level's grids (enforcing proper nesting), refined, and
// instantiated as new child grids. Field data on new grids is
// initialised by prolongation from the coarse level and then
// overwritten with any old same-level data that overlaps, so the
// solution survives regridding. It returns the number of grids
// created.
func (h *Hierarchy) RegridAll(base int, flag Flagger, p RegridParams, place Placer) int {
	// Capture old fine grids for data copy before destroying them.
	old := make([][]*Grid, h.MaxLevel+1)
	for l := base + 1; l <= h.MaxLevel; l++ {
		old[l] = slices.Clone(h.Grids(l))
	}
	h.ClearLevelsFrom(base + 1)

	created := 0
	for l := base; l < h.MaxLevel; l++ {
		if len(h.Grids(l)) == 0 {
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
		madeAny := false
		// Children are created sequentially (AddGrid mutates the
		// hierarchy) but their data is initialised afterwards in one
		// parallel batch: each init writes only its own child's patch
		// and reads only coarse and old same-level patches, none of
		// which a sibling init writes.
		var pending []*Grid
		for _, parent := range h.Grids(l) {
			for _, b := range boxes {
				piece := b.Intersect(parent.Box)
				if piece.Empty() {
					continue
				}
				childBox := piece.Refine(h.RefFactor)
				owner := parent.Owner
				if place != nil {
					owner = place(childBox, parent)
				}
				child := h.AddGrid(l+1, childBox, owner, parent.ID)
				created++
				madeAny = true
				if h.WithData {
					pending = append(pending, child)
				}
			}
		}
		oldL := old[l+1]
		h.pool.ForEach(len(pending), func(i int) {
			h.initChildData(pending[i], oldL)
		})
		if !madeAny {
			break
		}
		h.SortLevel(l + 1)
	}
	return created
}

// initChildData fills a new child grid by prolongation from every
// overlapping coarse grid, then copies old same-level data where it
// exists (the old solution is more accurate than prolonged data).
// Safe to run concurrently for distinct children: it writes only the
// child's own patch.
func (h *Hierarchy) initChildData(child *Grid, oldSameLevel []*Grid) {
	grown := child.Patch.Grown()
	for _, coarse := range h.Grids(child.Level - 1) {
		if coarse.Patch == nil {
			continue
		}
		region := grown.Intersect(coarse.Box.Refine(h.RefFactor))
		if region.Empty() {
			continue
		}
		for _, f := range h.Fields {
			grid.Prolong(child.Patch, coarse.Patch, f, h.RefFactor, region)
		}
	}
	for _, og := range oldSameLevel {
		if og.Patch == nil {
			continue
		}
		region := grown.Intersect(og.Box)
		if region.Empty() {
			continue
		}
		for _, f := range h.Fields {
			grid.CopyRegion(child.Patch, og.Patch, f, region)
		}
	}
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
		f.SetRows(g.Box, func(row []bool, x0, y, z int) {
			base := (x0 - gb.Lo[0]) + stride[1]*(y-gb.Lo[1]) + stride[2]*(z-gb.Lo[2])
			for k := range row {
				row[k] = row[k] || steeperThan(q, base+k, stride, threshold)
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
