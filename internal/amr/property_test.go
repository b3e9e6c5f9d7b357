package amr

import (
	"math/rand"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
)

// Property tests over regridding and splitting: for randomized flag
// patterns and cut positions the structural invariants must hold
// unconditionally.

func TestRegridAlwaysProperlyNestedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		h := New(geom.UnitCube(16), 2, 2, 1, false, "q")
		// Random level-0 tiling over 1..4 owners.
		owners := 1 + rng.Intn(4)
		tiles := geom.BoxList{h.Domain}.SplitEvenly(2 + rng.Intn(10))
		tiles.SortByLo()
		for i, b := range tiles {
			h.AddGrid(0, b, i%owners, NoGrid)
		}
		// Random blobby flags, different at each level.
		nblobs := 1 + rng.Intn(4)
		centers := make([]geom.Index, nblobs)
		radii := make([]int, nblobs)
		for b := range centers {
			centers[b] = geom.Index{rng.Intn(16), rng.Intn(16), rng.Intn(16)}
			radii[b] = 1 + rng.Intn(3)
		}
		flag := func(level int, f *cluster.FlagField) {
			scale := 1 << level
			for b := range centers {
				c := centers[b].Scale(scale)
				r := radii[b] * scale / 2
				if r < 1 {
					r = 1
				}
				box := geom.Box{
					Lo: c.Sub(geom.Index{r, r, r}),
					Hi: c.Add(geom.Index{r, r, r}),
				}.Intersect(f.Box)
				setWhere(f, box.Contains)
			}
		}
		p := DefaultRegridParams()
		h.RegridAll(0, flag, p, nil)
		if err := h.CheckProperNesting(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every flagged level-0 cell covered by level-0 grids must be
		// covered by level 1 (refined).
		f := h.FlagFieldFor(0)
		flag(0, f)
		lvl1 := coarsened(h.Boxes(1), 2)
		h.Domain.ForEach(func(i geom.Index) {
			if flagged(f, i) && !lvl1.Contains(i) {
				t.Fatalf("trial %d: flagged cell %v not refined", trial, i)
			}
		})
	}
}

func TestSplitGridAlwaysNestedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		h := New(geom.UnitCube(8), 2, 2, 1, false, "q")
		g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
		// Random children and grandchildren.
	next:
		for c := 0; c < 1+rng.Intn(3); c++ {
			lo := geom.Index{rng.Intn(12), rng.Intn(12), rng.Intn(12)}
			sh := geom.Index{2 + rng.Intn(4), 2 + rng.Intn(4), 2 + rng.Intn(4)}
			box := geom.BoxFromShape(lo, sh).Intersect(h.DomainAt(1))
			if box.Empty() {
				continue
			}
			for _, other := range h.Grids(1) {
				if other.Box.Intersects(box) {
					continue next
				}
			}
			child := h.AddGrid(1, box, 0, g.ID)
			gl := child.Box.Refine(2)
			gbox := geom.BoxFromShape(gl.Lo, geom.Index{2, 2, 2}).Intersect(gl)
			if !gbox.Empty() {
				h.AddGrid(2, gbox, 0, child.ID)
			}
		}
		d := rng.Intn(3)
		at := 1 + rng.Intn(7)
		total := h.TotalCells(0)
		h.SplitGrid(g, d, at)
		if h.TotalCells(0) != total {
			t.Fatalf("trial %d: split changed level-0 cells", trial)
		}
		if err := h.CheckProperNesting(); err != nil {
			t.Fatalf("trial %d (cut d=%d at=%d): %v", trial, d, at, err)
		}
	}
}
