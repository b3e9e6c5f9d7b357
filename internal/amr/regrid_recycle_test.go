package amr

import (
	"math"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
)

// recycleFixture is a two-field hierarchy of eight level-0 grids and a
// flagger that never changes its mind, so every regrid rebuilds levels
// 1 and 2 in the same shapes and, from the second on, every child can
// take a retired grid's storage. Every field is zero.
func recycleFixture() (*Hierarchy, Flagger) {
	h := New(geom.UnitCube(16), 2, 2, 1, true, "q", "rho")
	for _, b := range (geom.BoxList{h.Domain}).SplitEvenly(8) {
		h.AddGrid(0, b, 0, NoGrid)
	}
	flag := func(level int, f *cluster.FlagField) {
		target := geom.BoxFromShape(geom.Index{5, 5, 5}, geom.Index{6, 6, 6}).Refine(pow(2, level))
		if level == 1 {
			target = geom.BoxFromShape(geom.Index{12, 12, 12}, geom.Index{8, 8, 8})
		}
		setWhere(f, target.Contains)
	}
	return h, flag
}

// fineGrids lists the grids of levels 1 and deeper.
func fineGrids(h *Hierarchy) []*Grid {
	var out []*Grid
	for l := 1; l <= h.MaxLevel; l++ {
		out = append(out, h.Grids(l)...)
	}
	return out
}

// TestRegridRecyclesRetiredStorage is the recycling contract. Spare
// storage is poisoned with NaN before a regrid; every new patch must
// still read zero over its whole grown box (the fields are zero, so its
// interior copies or prolongs zero, and its ghosts wait for the next
// fill), and some must sit on the poisoned storage. Every retired grid
// has no patch afterwards, whether the regrid rebuilt its level or
// stopped short of it, and the spares hold at most what the rebuilt
// levels could take again.
func TestRegridRecyclesRetiredStorage(t *testing.T) {
	h, flag := recycleFixture()
	p := DefaultRegridParams()
	h.RegridAll(0, flag, p, nil)
	h.RegridAll(0, flag, p, nil) // retires the first build: spares exist
	poisoned := map[*float64]bool{}
	for _, gen := range h.spares {
		for _, list := range gen {
			for _, data := range list {
				for _, f := range data {
					for i := range f {
						f[i] = math.NaN()
					}
					poisoned[&f[0]] = true
				}
			}
		}
	}
	if len(poisoned) == 0 {
		t.Fatal("two regrids left no spare storage")
	}

	retired := fineGrids(h)
	h.RegridAll(0, flag, p, nil)
	reused := 0
	for _, g := range fineGrids(h) {
		for k, f := range g.Patch.Storage() {
			if poisoned[&f[0]] {
				reused++
			}
			for i, v := range f {
				if v != 0 {
					t.Fatalf("level-%d grid %d, field %d: cell %d reads %v after the regrid, want 0", g.Level, g.ID, k, i, v)
				}
			}
		}
	}
	if reused == 0 {
		t.Error("no new patch took the spare storage of a regrid that rebuilt the same shapes")
	}
	checkRetired(t, retired)
	checkSpares(t, h)

	// Flags on level 0 only: level 2 is not rebuilt, and its old grids
	// are retired all the same.
	retired = fineGrids(h)
	h.RegridAll(0, func(l int, f *cluster.FlagField) {
		if l == 0 {
			flag(l, f)
		}
	}, p, nil)
	if len(h.Grids(2)) != 0 {
		t.Fatalf("level 2 has %d grids after a regrid without level-1 flags", len(h.Grids(2)))
	}
	checkRetired(t, retired)
	checkSpares(t, h)
}

// checkRetired fails for every grid in the list that kept its patch.
func checkRetired(t *testing.T, grids []*Grid) {
	t.Helper()
	for _, g := range grids {
		if g.Patch != nil {
			t.Errorf("retired level-%d grid %d still has its patch", g.Level, g.ID)
		}
	}
}

// checkSpares fails unless, between regrids, the running regrid's
// spares are empty and the last one's hold, per length, no more
// storage than the fine levels have grids of that length.
func checkSpares(t *testing.T, h *Hierarchy) {
	t.Helper()
	for n, list := range h.spares[0] {
		if len(list) > 0 {
			t.Errorf("%d spares of %d cells left in the running generation between regrids", len(list), n)
		}
	}
	want := map[int]int{}
	for _, g := range fineGrids(h) {
		want[int(g.Patch.Grown().NumCells())]++
	}
	for n, list := range h.spares[1] {
		if len(list) > want[n] {
			t.Errorf("%d spares of %d cells kept, but the fine levels have %d grids of that length", len(list), n, want[n])
		}
	}
}
