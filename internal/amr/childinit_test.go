package amr

import (
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// childInitFixture is what initChildren reads, built by hand: a level 0
// of 8 grids holding 1 in every cell, ghosts included, an old level 1
// over the centre holding 2, and n new children that tile level 1 in 8³
// cubes, outside the hierarchy as RegridAll's are before they are
// placed.
func childInitFixture(t *testing.T, n int) (h *Hierarchy, li, oli *levelIndex, children []*Grid) {
	t.Helper()
	h = New(geom.UnitCube(16), 2, 1, 1, true, "q", "rho")
	centre := geom.Box{Lo: geom.Index{4, 4, 4}, Hi: geom.Index{11, 11, 11}}
	for _, b := range (geom.BoxList{h.Domain}).SplitEvenly(8) {
		p := h.AddGrid(0, b, 0, NoGrid)
		if c := b.Intersect(centre); !c.Empty() {
			h.AddGrid(1, c.Refine(2), 0, p.ID)
		}
	}
	for l := range 2 {
		for _, g := range h.Grids(l) {
			for _, f := range h.Fields {
				g.Patch.FillConstant(f, float64(l+1))
			}
		}
	}
	for _, b := range (geom.BoxList{h.DomainAt(1)}).SplitEvenly(64)[:n] {
		children = append(children, &Grid{Level: 1, Box: b, Patch: grid.NewPatch(b, 1, h.NGhost, h.Fields...)})
	}
	return h, h.currentIndex(0), h.currentIndex(1), children
}

// TestChildInitWritesInteriorOnly: child init writes every interior
// cell from its source, the old level 1 (2) where it existed and level
// 0 (1) elsewhere, and leaves every ghost, face, edge and corner, at
// NewPatch's zero, although every source holds a value there: the fill
// owns every ghost.
func TestChildInitWritesInteriorOnly(t *testing.T) {
	h, li, oli, children := childInitFixture(t, 64)
	h.initChildren(children, li, oli)
	old := geom.Box{Lo: geom.Index{8, 8, 8}, Hi: geom.Index{23, 23, 23}} // the fixture's centre, refined
	for _, c := range children {
		c.Patch.Grown().ForEach(func(i geom.Index) {
			want := 0.0
			switch {
			case !c.Box.Contains(i):
			case old.Contains(i):
				want = 2
			default:
				want = 1
			}
			for _, f := range h.Fields {
				if got := c.Patch.At(f, i); got != want {
					t.Fatalf("child %v: %s at %v = %v, want %v", c.Box, f, i, got, want)
				}
			}
		})
	}
}
