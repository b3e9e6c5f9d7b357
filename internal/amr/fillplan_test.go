package amr

import (
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/solver"
)

// TestFillPlanMatchesScan: the cached-plan ghost fill must be bitwise
// identical to the original scan-based fill, sequential and pooled.
func TestFillPlanMatchesScan(t *testing.T) {
	for _, workers := range []int{1, 4} {
		planned := buildDataHierarchy(t, 3)
		scanned := cloneHierarchy(planned)
		if workers > 1 {
			planned.SetPool(solver.NewPool(workers))
		}
		for l := 0; l <= 1; l++ {
			planned.FillGhostsData(l)
			scanned.FillGhostsScan(l)
		}
		assertSameData(t, scanned, planned, "fill")
	}
}

// TestRestrictPlanMatchesScan: same for the grouped restriction plan.
func TestRestrictPlanMatchesScan(t *testing.T) {
	for _, workers := range []int{1, 4} {
		planned := buildDataHierarchy(t, 3)
		scanned := cloneHierarchy(planned)
		if workers > 1 {
			planned.SetPool(solver.NewPool(workers))
		}
		planned.RestrictData(1)
		scanned.RestrictDataScan(1)
		assertSameData(t, scanned, planned, "restrict")
	}
}

// TestFillPlanInvalidation: structural mutations (AddGrid, RemoveGrid,
// SplitGrid) bump the generation and must rebuild the cached plan; a
// stale plan would read or skip the wrong grids.
func TestFillPlanInvalidation(t *testing.T) {
	planned := buildDataHierarchy(t, 2)
	// Build and use the initial plan.
	for l := 0; l <= 1; l++ {
		planned.FillGhostsData(l)
	}
	planned.RestrictData(1)

	// Mutate: split one level-0 grid, remove one fine grid, add a new
	// fine grid elsewhere.
	g0 := planned.Grids(0)[0]
	planned.SplitGrid(g0, 0, g0.Box.Lo[0]+2)
	fines := planned.Grids(1)
	planned.RemoveGrid(fines[len(fines)-1].ID)
	target := geom.BoxFromShape(geom.Index{10, 10, 10}, geom.Index{2, 2, 2})
	var parent *Grid
	var child geom.Box
	for _, g := range planned.Grids(0) {
		if child = g.Box.Intersect(target); !child.Empty() {
			parent = g
			break
		}
	}
	if parent == nil {
		t.Fatal("fixture: expected overlap for new child")
	}
	ng := planned.AddGrid(1, child.Refine(2), parent.Owner, parent.ID)
	ng.Patch.FillConstant("q", 7)
	ng.Patch.FillConstant("rho", 8)
	if err := planned.CheckProperNesting(); err != nil {
		t.Fatalf("fixture: %v", err)
	}

	// A fresh clone shares no plan cache; scan fill on it is ground truth.
	scanned := cloneHierarchy(planned)
	for l := 0; l <= 1; l++ {
		planned.FillGhostsData(l)
		scanned.FillGhostsScan(l)
	}
	planned.RestrictData(1)
	scanned.RestrictDataScan(1)
	assertSameData(t, scanned, planned, "after mutation")
}

// TestDataCheckOracle: with the oracle armed, planned fill/restrict
// self-verify against the scan baseline and must not diverge.
func TestDataCheckOracle(t *testing.T) {
	h := buildDataHierarchy(t, 2)
	h.SetPool(solver.NewPool(4))
	h.SetDataCheck(true)
	want := cloneHierarchy(h)
	for l := 0; l <= 1; l++ {
		h.FillGhostsData(l)
		want.FillGhostsScan(l)
	}
	h.RestrictData(1)
	want.RestrictDataScan(1)
	assertSameData(t, want, h, "datacheck")
}

// TestRegridPoolMatchesSequential: pool-parallel child initialisation
// in RegridAll must produce exactly the sequential result.
func TestRegridPoolMatchesSequential(t *testing.T) {
	build := func(pool *solver.Pool) *Hierarchy {
		h := New(geom.UnitCube(16), 2, 1, 1, true, "q")
		h.SetPool(pool)
		g := h.AddGrid(0, geom.UnitCube(16), 0, NoGrid)
		g.Patch.FillFunc("q", func(i geom.Index) float64 {
			return float64(i[0]*37+i[1]*11+i[2]) * 0.25
		})
		flag := func(level int, f *cluster.FlagField) {
			setWhere(f, func(i geom.Index) bool { return (i[0]+i[1]+i[2])%5 == 0 })
		}
		h.RegridAll(0, flag, RegridParams{Cluster: cluster.DefaultParams()}, nil)
		return h
	}
	seq := build(nil)
	par := build(solver.NewPool(4))
	assertSameData(t, seq, par, "regrid")
}
