package amr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/solver"
)

// regriddedHierarchy is a random hierarchy (randomHierarchy, rebuilt by
// copyStructure) regridded once with rowFlagger blobs, as
// TestRegridAllMatchesReference draws them for the same seed. With
// data, every cell of every patch, ghosts included, is then drawn
// afresh from seed.
func regriddedHierarchy(seed int64, withData bool) *Hierarchy {
	rng := rand.New(rand.NewSource(500 + seed))
	shape := randomHierarchy(rng)
	base := rng.Intn(shape.MaxLevel)
	flag := rowFlagger(rng, shape)
	params := RegridParams{Cluster: cluster.DefaultParams(), Buffer: rng.Intn(2)}
	h := copyStructure(shape, withData, seed)
	h.RegridAll(base, flag, params, nil)
	if withData {
		rng := rand.New(rand.NewSource(seed))
		for l := 0; l <= h.MaxLevel; l++ {
			for _, g := range h.Grids(l) {
				for _, f := range h.Fields {
					q := g.Patch.Field(f)
					for k := range q {
						q[k] = rng.NormFloat64()
					}
				}
			}
		}
	}
	return h
}

// TestFillPlanMatchesScan: the cached-plan ghost fill must be bitwise
// identical to the original scan-based fill, sequential and pooled —
// on a fixed two-level hierarchy, and on random regridded ones whose
// every cell, ghosts included, starts random, so a ghost cell the plan
// skipped that no sibling covers keeps a value the scan overwrote.
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
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		h := regriddedHierarchy(seed, true)
		scanned := cloneHierarchy(h)
		for l := 0; l <= h.MaxLevel; l++ {
			scanned.FillGhostsScan(l)
		}
		for _, workers := range []int{1, 2, 4} {
			planned := cloneHierarchy(h)
			planned.SetPool(solver.NewPool(workers))
			for l := 0; l <= h.MaxLevel; l++ {
				planned.FillGhostsData(l)
			}
			assertSameData(t, scanned, planned, fmt.Sprintf("seed %d, %d workers", seed, workers))
		}
	}
}

// TestFillPlanWritesEachGhostCellOnce: on random regridded hierarchies,
// every destination's ops and clamp boxes each lie in one of its face
// slabs (so no edge or corner ghost and no interior cell is written),
// the ops are pairwise disjoint and miss the outside-domain clamp
// boxes, and they prolong no more cells than the in-domain face cells
// no sibling covers. Fewer happens where the coarse level does not
// cover the faces. The cost model's prolongation message still counts
// the whole in-domain shell less every sibling overlap (planDest).
func TestFillPlanWritesEachGhostCellOnce(t *testing.T) {
	var equal, below int
	for seed := int64(0); seed < 40; seed++ {
		h := regriddedHierarchy(seed, false)
		r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
		bytesPerCell := int64(len(h.Fields)) * 8
		for l := 0; l <= h.MaxLevel; l++ {
			dom := h.DomainAt(l)
			// The prolongation message of each destination, by grid.
			parentBytes := map[GridID]int64{}
			for _, m := range h.GhostPlan(l, false) {
				if prolongs(h, m) {
					parentBytes[m.Dst] = m.Bytes
				}
			}
			for _, d := range h.fillPlan(l) {
				g := d.g
				faces := geom.AppendFaces(nil, g.Box, h.NGhost)
				inFace := func(b geom.Box) bool {
					for _, f := range faces {
						if f.ContainsBox(b) {
							return true
						}
					}
					return false
				}
				for i := range d.ops {
					a := d.ops[i].region()
					if !inFace(a) {
						t.Fatalf("seed %d level %d grid %d: op %d %v lies in no face slab of %v", seed, l, g.ID, i, a, g.Box)
					}
					for _, cb := range d.clamps {
						if a.Intersects(cb) {
							t.Fatalf("seed %d level %d grid %d: op %d %v meets clamp box %v", seed, l, g.ID, i, a, cb)
						}
					}
					for j := i + 1; j < len(d.ops); j++ {
						if b := d.ops[j].region(); a.Intersects(b) {
							t.Fatalf("seed %d level %d grid %d: ops %d %v and %d %v overlap", seed, l, g.ID, i, a, j, b)
						}
					}
				}
				for _, cb := range d.clamps {
					if !inFace(cb) || cb.Intersects(dom) {
						t.Fatalf("seed %d level %d grid %d: clamp box %v is not a face cell outside %v", seed, l, g.ID, cb, dom)
					}
				}
				if l == 0 {
					continue
				}
				shell := g.Box.Grow(h.NGhost).Intersect(dom)
				remaining := shell.NumCells() - g.Box.NumCells()
				var faceLeft int64
				for _, f := range faces {
					faceLeft += f.Intersect(dom).NumCells()
				}
				for _, s := range h.Grids(l) {
					if s.ID != g.ID {
						remaining -= shell.Intersect(s.Box).NumCells()
						for _, f := range faces {
							faceLeft -= f.Intersect(s.Box).NumCells()
						}
					}
				}
				if want := (remaining + r3 - 1) / r3 * bytesPerCell; parentBytes[g.ID] != want {
					t.Fatalf("seed %d level %d grid %d: prolongation carries %d bytes, the remainder of %d cells %d",
						seed, l, g.ID, parentBytes[g.ID], remaining, want)
				}
				var prolonged int64
				for i := range d.ops {
					if d.ops[i].prolong {
						prolonged += d.ops[i].region().NumCells()
					}
				}
				switch {
				case prolonged > faceLeft:
					t.Fatalf("seed %d level %d grid %d: prolongs %d cells, the face remainder is %d", seed, l, g.ID, prolonged, faceLeft)
				case prolonged == faceLeft:
					equal++
				default:
					below++
				}
			}
		}
	}
	t.Logf("prolonged cells against the face remainder: %d destinations equal, %d below", equal, below)
	if equal == 0 {
		t.Fatal("fixture: no destination prolongs its whole face remainder")
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

// TestPooledScratchHoldsNoGrid: a plan scratch handed back to the pool
// holds no grid pointer in any backing array, up to capacity, whatever
// field it sits in — the pool would otherwise keep retired grids alive.
// The scratch is left as a fill-plan walk over a level with siblings
// and prolongations leaves it (candidates, coarse candidates, ops), plus
// interface rows seeded by hand.
func TestPooledScratchHoldsNoGrid(t *testing.T) {
	h := buildDataHierarchy(t, 2)
	h.planMu.Lock()
	li, cli := h.indexFor(1), h.indexFor(0)
	h.planMu.Unlock()
	s := new(planScratch)
	s.marks = s.marks0[:]
	var d fillDest
	for _, g := range h.Grids(1) {
		h.planDest(nil, &d, g, 1, li, cli, h.DomainAt(1), 8, s)
	}
	s.iface = append(s.iface, interfaceFace{target: h.Grids(0)[0]})[:0]
	if !holdsGrid(reflect.ValueOf(s).Elem()) {
		t.Fatal("fixture: the used scratch holds no grid")
	}
	putPlanScratch(s)
	if holdsGrid(reflect.ValueOf(s).Elem()) {
		t.Error("a scratch handed to putPlanScratch still holds a grid")
	}
}

// holdsGrid reports whether v holds a non-nil *Grid anywhere, reading
// every slice up to its capacity.
func holdsGrid(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return v.Type() == reflect.TypeFor[*Grid]() && !v.IsNil()
	case reflect.Struct:
		for i := range v.NumField() {
			if holdsGrid(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice3(0, v.Cap(), v.Cap())
		}
		for i := range v.Len() {
			if holdsGrid(v.Index(i)) {
				return true
			}
		}
	}
	return false
}
