package amr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"samrdlb/internal/geom"
	"samrdlb/internal/solver"
)

// refluxFixture: 8³ coarse domain fully covered by one coarse grid,
// with a fine level over the centre [2..5]³ (coarse index space).
func refluxFixture(t *testing.T) (*Hierarchy, *Grid, *Grid) {
	t.Helper()
	h := New(geom.UnitCube(8), 2, 1, 2, true, solver.FieldQ)
	cg := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	fg := h.AddGrid(1, geom.BoxFromShape(geom.Index{4, 4, 4}, geom.Index{8, 8, 8}), 0, cg.ID)
	return h, cg, fg
}

func TestFluxRegisterFaceIdentification(t *testing.T) {
	h, _, _ := refluxFixture(t)
	fr := NewFluxRegister(h, 1)
	// The covered coarse region is a 4³ cube: 6 sides × 16 faces.
	if len(fr.plan.faces) != 96 {
		t.Errorf("NumFaces = %d, want 96", len(fr.plan.faces))
	}
	for key, e := range fr.faceMap() {
		// Corrected cells are never covered by the fine level.
		cov := geom.BoxFromShape(geom.Index{2, 2, 2}, geom.Index{4, 4, 4})
		if cov.Contains(e.Cell) {
			t.Fatalf("correction cell %v is covered", e.Cell)
		}
		// The face must be adjacent to its cell.
		lo := key.I
		lo[key.D]--
		if e.Cell != key.I && e.Cell != lo {
			t.Fatalf("face %v corrects non-adjacent cell %v", key, e.Cell)
		}
	}
}

func TestFluxRegisterSkipsDomainBoundary(t *testing.T) {
	// Fine level touching the domain boundary: no correction cells
	// outside the domain.
	h := New(geom.UnitCube(8), 2, 1, 2, true, solver.FieldQ)
	cg := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{8, 8, 8}), 0, cg.ID)
	fr := NewFluxRegister(h, 1)
	// Covered 4³ cube at the corner: 3 interior sides have faces, the
	// 3 domain-boundary sides do not: 3 × 16 = 48.
	if len(fr.plan.faces) != 48 {
		t.Errorf("NumFaces = %d, want 48", len(fr.plan.faces))
	}
}

func TestStepFluxesMatchesStep(t *testing.T) {
	// Advancing via StepFluxes must equal the plain Step.
	k := solver.Advection3D{Vel: [3]float64{0.4, -0.3, 0.2}}
	mk := func() *Hierarchy {
		h, _, _ := refluxFixture(t)
		for _, g := range h.Grids(0) {
			g.Patch.FillFunc(solver.FieldQ, func(i geom.Index) float64 {
				return math.Sin(float64(i[0])) * math.Cos(float64(i[1]+i[2]))
			})
		}
		h.FillGhostsData(0)
		return h
	}
	h1, h2 := mk(), mk()
	k.Step(h1.Grids(0)[0].Patch, 0.05, 0.125)
	k.StepFluxes(h2.Grids(0)[0].Patch, 0.05, 0.125)
	a := h1.Grids(0)[0].Patch.Field(solver.FieldQ)
	b := h2.Grids(0)[0].Patch.Field(solver.FieldQ)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-14 {
			t.Fatalf("StepFluxes diverges from Step at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// advanceRefluxed performs one coarse step with subcycled fine steps,
// restriction, and optional refluxing; returns the coarse-grid mass.
func advanceRefluxed(t *testing.T, reflux bool) (before, after float64) {
	t.Helper()
	h, cg, fg := refluxFixture(t)
	k := solver.Advection3D{Vel: [3]float64{0.5, 0.25, 0.125}}
	// A blob inside the fine region abutting its high-x interface and
	// zero elsewhere: the domain boundary carries no flux (upwind of
	// zero is zero), so any mass change is a coarse–fine interface
	// error. The fine data carries a mass-neutral checkerboard so the
	// fine interface fluxes genuinely differ from the coarse one.
	blob := func(c geom.Index) float64 {
		if c[0] == 5 && c[1] >= 3 && c[1] <= 4 && c[2] >= 3 && c[2] <= 4 {
			return 1
		}
		return 0
	}
	cg.Patch.FillFunc(solver.FieldQ, blob)
	fg.Patch.FillFunc(solver.FieldQ, func(i geom.Index) float64 {
		v := blob(i.FloorDiv(2))
		if v == 0 {
			return 0
		}
		// An x-gradient within each coarse cell (mass-neutral): the
		// fine interface flux then differs from the coarse one.
		if i[0]%2 == 0 {
			return v * 0.5
		}
		return v * 1.5
	})
	// Align the coarse data with the fine average before measuring.
	h.RestrictData(1)
	dx0 := 1.0 / 8
	dt0 := solver.MaxStableDt(k.MaxSpeed(), dx0, 0.4)
	before = cg.Patch.Sum(solver.FieldQ)

	var fr *FluxRegister
	if reflux {
		fr = NewFluxRegister(h, 1)
	}
	// Coarse step.
	h.FillGhostsData(0)
	cfl := k.StepFluxes(cg.Patch, dt0, dx0)
	if fr != nil {
		fr.AddCoarse(cg, cfl)
	}
	// Two fine substeps.
	for s := 0; s < 2; s++ {
		h.FillGhostsData(1)
		ffl := k.StepFluxes(fg.Patch, dt0/2, dx0/2)
		if fr != nil {
			fr.AddFine(fg, ffl)
		}
	}
	h.RestrictData(1)
	if fr != nil {
		fr.Apply()
	}
	after = cg.Patch.Sum(solver.FieldQ)
	return before, after
}

func TestRefluxRestoresConservation(t *testing.T) {
	b0, a0 := advanceRefluxed(t, false)
	lossNo := math.Abs(a0 - b0)
	b1, a1 := advanceRefluxed(t, true)
	lossYes := math.Abs(a1 - b1)
	if lossYes > 1e-12*math.Abs(b1) {
		t.Errorf("refluxed step not conservative: %v -> %v (loss %v)", b1, a1, lossYes)
	}
	if lossNo <= lossYes {
		t.Errorf("without refluxing the loss (%v) should exceed the refluxed loss (%v)", lossNo, lossYes)
	}
}

// refluxHierarchy builds a random properly nested, disjoint, r-aligned
// hierarchy with data on every level: a level-0 tiling, then per finer
// level a union of random boxes cut into disjoint pieces (so many are
// adjacent) and clipped to their parents, then a few SplitGrid cuts of
// level-0 grids whose straddling descendants split with them.
func refluxHierarchy(rng *rand.Rand, r int) *Hierarchy {
	dom := geom.UnitCube(12)
	h := New(dom, r, 2, 1, true, solver.FieldQ)
	for _, b := range (geom.BoxList{dom}).SplitEvenly(1 + rng.Intn(6)) {
		h.AddGrid(0, b, 0, NoGrid)
	}
	for l := 1; l <= h.MaxLevel; l++ {
		var placed geom.BoxList // level l−1 index space
		region := h.DomainAt(l - 1)
		if l > 1 {
			region = h.Boxes(l - 1).Bounding()
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			for _, piece := range geom.SubtractList(randomBoxIn(rng, region), placed) {
				for _, p := range h.Grids(l - 1) {
					if sub := piece.Intersect(p.Box); !sub.Empty() {
						h.AddGrid(l, sub.Refine(r), 0, p.ID)
						placed = append(placed, sub)
					}
				}
			}
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		gs := h.Grids(0)
		g, d := gs[rng.Intn(len(gs))], rng.Intn(geom.Dims)
		if n := g.Box.Shape()[d]; n >= 2 {
			h.SplitGrid(g, d, g.Box.Lo[d]+1+rng.Intn(n-1))
		}
	}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			q := g.Patch.Field(solver.FieldQ)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
		}
	}
	return h
}

// randomFluxes returns one set of random face fluxes per grid of level
// l, in level order.
func randomFluxes(rng *rand.Rand, h *Hierarchy, l int) []*solver.Fluxes {
	var out []*solver.Fluxes
	for _, g := range h.Grids(l) {
		fl := solver.NewFluxes(g.Box)
		for d := 0; d < geom.Dims; d++ {
			f := fl.Faces(d)
			for i := range f {
				f[i] = rng.NormFloat64()
			}
		}
		out = append(out, fl)
	}
	return out
}

// levelBits snapshots level l's solution field.
func levelBits(h *Hierarchy, l int) [][]float64 {
	var out [][]float64
	for _, g := range h.Grids(l) {
		out = append(out, slices.Clone(g.Patch.Field(solver.FieldQ)))
	}
	return out
}

func restoreLevel(h *Hierarchy, l int, snap [][]float64) {
	for i, g := range h.Grids(l) {
		copy(g.Patch.Field(solver.FieldQ), snap[i])
	}
}

func sameBits(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool {
			return math.Float64bits(u) == math.Float64bits(v)
		})
	})
}

// TestFluxRegisterMatchesReference is the one-implementation property:
// over random nested hierarchies (adjacent fine grids, SplitGrid
// halves, fine grids on the domain boundary and on the edge of their
// coarse level, cells owning several faces, refinement factors 2 and
// 3) the planned register — fed in a shuffled grid order, as a pool
// would — holds bit for bit what the map-walking reference holds after
// a level-order feed, and corrects the coarse patches identically when
// the reference applies in the plan's face order. The plan oracle is
// armed, so every served interface plan is also compared with its
// whole-level scan build.
func TestFluxRegisterMatchesReference(t *testing.T) {
	multi := 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		r := 2 + trial%2
		h := refluxHierarchy(rng, r)
		if err := h.CheckProperNesting(); err != nil {
			t.Fatalf("trial %d: generator broke nesting: %v", trial, err)
		}
		h.SetPlanCheck(true)
		for fine := 1; fine <= h.MaxLevel; fine++ {
			if len(h.Grids(fine)) == 0 {
				continue
			}
			planned, ref := NewFluxRegister(h, fine), newRefFluxRegister(h, fine)
			cfl := randomFluxes(rng, h, fine-1)
			for i, g := range h.Grids(fine - 1) {
				ref.addCoarse(g, cfl[i])
			}
			for _, i := range rng.Perm(len(cfl)) {
				planned.AddCoarse(h.Grids(fine - 1)[i], cfl[i])
			}
			for sub := 0; sub < r; sub++ {
				ffl := randomFluxes(rng, h, fine)
				for i, g := range h.Grids(fine) {
					ref.addFine(g, ffl[i])
				}
				for _, i := range rng.Perm(len(ffl)) {
					planned.AddFine(h.Grids(fine)[i], ffl[i])
				}
			}

			got := planned.faceMap()
			if len(got) != len(planned.plan.faces) {
				t.Fatalf("trial %d level %d: face table repeats a face (%d rows, %d distinct)",
					trial, fine, len(planned.plan.faces), len(got))
			}
			if len(got) != len(ref.faces) {
				t.Fatalf("trial %d level %d: planned %d faces, reference %d", trial, fine, len(got), len(ref.faces))
			}
			perCell := map[geom.Index]int{}
			for key, w := range ref.faces {
				g, ok := got[key]
				if !ok {
					t.Fatalf("trial %d level %d: reference face %+v is not planned", trial, fine, key)
				}
				if g.Cell != w.Cell || g.Sign != w.Sign || g.seenCoarse != w.seenCoarse ||
					math.Float64bits(g.Coarse) != math.Float64bits(w.Coarse) ||
					math.Float64bits(g.FineSum) != math.Float64bits(w.FineSum) {
					t.Fatalf("trial %d level %d face %+v: planned %+v, reference %+v", trial, fine, key, *g, *w)
				}
				if perCell[w.Cell]++; perCell[w.Cell] == 2 {
					multi++
				}
			}

			before := levelBits(h, fine-1)
			planned.Apply()
			corrected := levelBits(h, fine-1)
			restoreLevel(h, fine-1, before)
			var order []faceKey
			for j := range planned.plan.faces {
				key, _ := planned.rowFace(j)
				order = append(order, key)
			}
			ref.apply(order)
			if !sameBits(corrected, levelBits(h, fine-1)) {
				t.Fatalf("trial %d level %d: planned Apply and reference apply corrected differently", trial, fine)
			}
			planned.Release()
		}
	}
	if multi == 0 {
		t.Error("no trial produced a coarse cell owning several faces; the generator lost its concave corners")
	}
}

// orderSensitive reports whether q plus the corrections, added one at
// a time, depends on the order they are added in.
func orderSensitive(q float64, cs []float64) bool {
	sums := map[uint64]bool{}
	var walk func(sum float64, rest []float64)
	walk = func(sum float64, rest []float64) {
		if len(rest) == 0 {
			sums[math.Float64bits(sum)] = true
		}
		for i, c := range rest {
			walk(sum+c, slices.Delete(slices.Clone(rest), i, i+1))
		}
	}
	walk(q, cs)
	return len(sums) > 1
}

// TestFluxRegisterApplyOrderIndependent pins the Apply order: on an
// L-shaped (here three-armed) fine region the coarse cells in the
// concave corner own two or three interface faces, and the map
// register summed their corrections in map-iteration order, so
// (q+c₁)+c₂ and (q+c₂)+c₁ could differ in the last bit between two
// runs of one binary. The face table's fixed order makes repeated
// cycles bit-identical.
func TestFluxRegisterApplyOrderIndependent(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, true, solver.FieldQ)
	cg := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	for _, arm := range []geom.Box{ // coarse index space
		geom.Box{Lo: geom.Index{2, 2, 2}, Hi: geom.Index{5, 3, 5}},
		geom.Box{Lo: geom.Index{2, 4, 2}, Hi: geom.Index{3, 5, 5}},
		geom.Box{Lo: geom.Index{4, 4, 2}, Hi: geom.Index{5, 5, 3}},
	} {
		h.AddGrid(1, arm.Refine(2), 0, cg.ID)
	}
	rng := rand.New(rand.NewSource(1))
	q := cg.Patch.Field(solver.FieldQ)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	before := levelBits(h, 0)
	cfl := randomFluxes(rng, h, 0)
	ffl := [][]*solver.Fluxes{randomFluxes(rng, h, 1), randomFluxes(rng, h, 1)}

	cycle := func() [][]float64 {
		restoreLevel(h, 0, before)
		fr := NewFluxRegister(h, 1)
		defer fr.Release()
		fr.AddCoarse(cg, cfl[0])
		for _, sub := range ffl {
			for i, g := range h.Grids(1) {
				fr.AddFine(g, sub[i])
			}
		}
		fr.Apply()
		return levelBits(h, 0)
	}

	// The fixture must be one where the order matters: some corner cell
	// whose corrections do not commute in floating point.
	fr := NewFluxRegister(h, 1)
	fr.AddCoarse(cg, cfl[0])
	for _, sub := range ffl {
		for i, g := range h.Grids(1) {
			fr.AddFine(g, sub[i])
		}
	}
	corr := map[geom.Index][]float64{}
	for _, e := range fr.faceMap() {
		corr[e.Cell] = append(corr[e.Cell], e.Sign*(e.FineSum-e.Coarse))
	}
	sensitive, three := false, false
	for cell, cs := range corr {
		three = three || len(cs) == 3
		sensitive = sensitive || orderSensitive(cg.Patch.At(solver.FieldQ, cell), cs)
	}
	if !three || !sensitive {
		t.Fatalf("fixture lost its point: three-face cell %v, order-sensitive cell %v", three, sensitive)
	}

	first := cycle()
	if sameBits(first, before) {
		t.Fatal("the register cycle corrected nothing")
	}
	for rep := 1; rep < 30; rep++ {
		if !sameBits(cycle(), first) {
			t.Fatalf("cycle %d corrected the coarse patch differently from cycle 0", rep)
		}
	}
}

// TestInterfacePlanCached pins the cache contract: a register on an
// unchanged structure reuses the level's plan and discovers nothing
// (allocations stay a handful, far below the face count), ownership
// changes dirty nothing, and a structural change on either side of the
// interface rebuilds the plan.
func TestInterfacePlanCached(t *testing.T) {
	h := New(geom.UnitCube(16), 2, 1, 1, true, solver.FieldQ)
	for _, b := range (geom.BoxList{geom.UnitCube(16)}).SplitEvenly(4) {
		h.AddGrid(0, b, 0, NoGrid)
	}
	fine := geom.Box{Lo: geom.Index{2, 2, 2}, Hi: geom.Index{5, 5, 5}}
	fg := h.AddGrid(1, fine.Refine(2), 0, h.Grids(0)[0].ID)

	plan := func() *interfacePlan {
		fr := NewFluxRegister(h, 1)
		defer fr.Release()
		return fr.plan
	}
	first := plan()
	if len(first.faces) != 6*16 {
		t.Fatalf("NumFaces = %d, want 96", len(first.faces))
	}
	h.SetOwner(fg, 3)
	h.SetOwner(h.Grids(0)[1], 2)
	if plan() != first {
		t.Error("an ownership change rebuilt the interface plan")
	}
	allocs := testing.AllocsPerRun(20, func() { NewFluxRegister(h, 1).Release() })
	if allocs > 4 {
		t.Errorf("NewFluxRegister on a clean level allocated %.0f times; a cached plan needs at most the register and its three accumulators", allocs)
	}

	// A coarse-level split under the fine grid changes writers and
	// targets; a new fine grid changes the table.
	h.SplitGrid(h.Grids(0)[0], 0, 4)
	second := plan()
	if second == first {
		t.Fatal("a coarse SplitGrid left the interface plan cached")
	}
	if plan() != second {
		t.Error("the rebuilt plan was not cached")
	}
	parent := h.Grid(h.Grids(1)[0].Parent)
	h.AddGrid(1, geom.Box{Lo: geom.Index{4, 12, 12}, Hi: geom.Index{7, 15, 15}}, 0, parent.ID)
	if third := plan(); third == second || len(third.faces) <= len(second.faces) {
		t.Error("a new fine grid did not rebuild the interface plan")
	}
}

// TestInterfacePlanRejectsUnalignedFineBox: the one-fine-contributor
// invariant rests on r-aligned fine boxes, so the builder refuses
// anything else instead of planning a partial face.
func TestInterfacePlanRejectsUnalignedFineBox(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, solver.FieldQ)
	cg := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.Box{Lo: geom.Index{3, 4, 4}, Hi: geom.Index{8, 9, 9}}, 0, cg.ID)
	defer func() {
		if recover() == nil {
			t.Fatal("an unaligned fine box was planned")
		}
	}()
	NewFluxRegister(h, 1)
}

// TestPlanCheckDetectsStaleInterfacePlan pins that the oracle covers
// the fourth plan kind: a structural change that bypasses the
// generation bump leaves a stale interface plan, and the next serve
// must panic.
func TestPlanCheckDetectsStaleInterfacePlan(t *testing.T) {
	h, _, _ := refluxFixture(t)
	NewFluxRegister(h, 1).Release()
	h.planMu.Lock()
	h.plans[1].iface.faces[0].Sign = -h.plans[1].iface.faces[0].Sign
	h.planMu.Unlock()
	h.SetPlanCheck(true)
	defer func() {
		if recover() == nil {
			t.Fatal("plancheck served a corrupted interface plan without panicking")
		}
	}()
	NewFluxRegister(h, 1)
}

// TestInterfaceFaceRowSize pins the face-table row at 32 bytes or
// fewer: a run with refluxing builds tens of thousands of rows per
// regrid, and a row keeps only what AddFine, AddCoarse and Apply read.
// The face and its cell are rebuilt from it (rowFace) where a test
// needs them.
func TestInterfaceFaceRowSize(t *testing.T) {
	if n := unsafe.Sizeof(interfaceFace{}); n > 32 {
		t.Errorf("interfaceFace is %d bytes, want at most 32", n)
	}
}
