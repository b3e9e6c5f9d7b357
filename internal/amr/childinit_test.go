package amr

import (
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// childInitFixture is what initChildren reads, built by hand: a level 0
// of 8 grids, an old level 1 over the centre, both holding 1 in every
// cell, ghosts included, and n new children that tile level 1 in 8³
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
				g.Patch.FillConstant(f, 1)
			}
		}
	}
	for _, b := range (geom.BoxList{h.DomainAt(1)}).SplitEvenly(64)[:n] {
		children = append(children, &Grid{Level: 1, Box: b, Patch: grid.NewPatch(b, 1, h.NGhost, h.Fields...)})
	}
	return h, h.currentIndex(0), h.currentIndex(1), children
}

// TestChildInitKeepsEdgesZero: child init writes every interior and
// face cell and leaves each edge and corner ghost, a cell with two or
// three coordinates outside the box, at NewPatch's zero, although every
// source holds 1 there.
func TestChildInitKeepsEdgesZero(t *testing.T) {
	h, li, oli, children := childInitFixture(t, 64)
	h.initChildren(children, li, oli)
	dom := h.DomainAt(1)
	for _, c := range children {
		c.Patch.Grown().ForEach(func(i geom.Index) {
			out := 0
			for d := range geom.Dims {
				if i[d] < c.Box.Lo[d] || i[d] > c.Box.Hi[d] {
					out++
				}
			}
			want := 1.0
			if out >= 2 || !dom.Contains(i) {
				want = 0
			}
			for _, f := range h.Fields {
				if got := c.Patch.At(f, i); got != want {
					t.Fatalf("child %v: %s at %v = %v, want %v", c.Box, f, i, got, want)
				}
			}
		})
	}
}
