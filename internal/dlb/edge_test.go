package dlb

import (
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
	"samrdlb/internal/netsim"
)

// Permanent regression tables for the small pure helpers the balancing
// passes are built from, plus the degenerate proc-set cases the
// property harness exercises only probabilistically.

// TestImbalanceTable complements TestImbalanceEdgeCases in
// regress_test.go with exact expected values.
func TestImbalanceTable(t *testing.T) {
	cases := []struct {
		name  string
		works []float64
		want  float64
	}{
		{"nil", nil, 0},
		{"empty", []float64{}, 0},
		{"single", []float64{5}, 0},
		{"all-zero", []float64{0, 0, 0}, 0},
		{"equal", []float64{4, 4, 4}, 0},
		{"half", []float64{8, 4}, 0.5},
		{"one-idle", []float64{4, 0}, 1},
		{"order-free", []float64{0, 4}, 1},
	}
	for _, c := range cases {
		if got := Imbalance(c.works); got != c.want {
			t.Errorf("%s: Imbalance(%v) = %v, want %v", c.name, c.works, got, c.want)
		}
	}
}

func TestPickGridEdgeCases(t *testing.T) {
	// Slabs of 1, 2 and 4 planes on an 8^3 domain: 64, 128, 256 cells.
	h := slabHierarchy(8, []int{1, 2, 4, 1}, []int{0, 0, 0, 0})
	grids := h.Grids(0) // IDs ascend in creation order

	if g := pickGrid(nil, 100); g != nil {
		t.Errorf("pickGrid(nil) = %v, want nil", g)
	}
	// Largest grid within budget wins.
	if g := pickGrid(grids, 130); g.NumCells() != 128 {
		t.Errorf("budget 130 picked %d cells, want 128", g.NumCells())
	}
	// Exact fit counts as within budget.
	if g := pickGrid(grids, 256); g.NumCells() != 256 {
		t.Errorf("budget 256 picked %d cells, want 256", g.NumCells())
	}
	// Nothing fits: fall back to the overall smallest.
	if g := pickGrid(grids, 10); g.NumCells() != 64 {
		t.Errorf("budget 10 picked %d cells, want smallest (64)", g.NumCells())
	}
	// Ties break on the lowest grid ID, not slice position.
	sized := []*amr.Grid{grids[3], grids[0]} // both 64 cells; grids[0] has the lower ID
	if g := pickGrid(sized, 100); g.ID != grids[0].ID {
		t.Errorf("size tie picked grid %d, want lowest ID %d", g.ID, grids[0].ID)
	}
	if g := pickGrid(sized, 1); g.ID != grids[0].ID {
		t.Errorf("smallest-grid tie picked grid %d, want lowest ID %d", g.ID, grids[0].ID)
	}
}

func TestSplitTowardsEdgeCases(t *testing.T) {
	sys := machine.WanPair(2, nil)

	// A single-plane slab (max dimension is y/z but those planes belong
	// to one cell column in x... the splittable dimension must have at
	// least 2 planes). A 1x1x1 grid is unsplittable in every dimension.
	h := amr.New(geom.UnitCube(4), 2, 1, 1, false, "q")
	tiny := h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{1, 1, 1}), 0, amr.NoGrid)
	if p := splitTowards(ctxFor(t, sys, h), tiny, 0.5, [3]float64{0, 0, 0}); p != nil {
		t.Errorf("splitting a 1-cell grid returned %+v, want nil", p)
	}

	// frac→0 still carves at least one plane; frac→1 still leaves one.
	for _, frac := range []float64{0.0001, 0.9999} {
		h := slabHierarchy(8, []int{8}, []int{0})
		g := h.Grids(0)[0]
		before := g.NumCells()
		piece := splitTowards(ctxFor(t, sys, h), g, frac, [3]float64{0, 0.5, 0.5})
		if piece == nil {
			t.Fatalf("frac=%g: split returned nil", frac)
		}
		if piece.NumCells() == 0 || piece.NumCells() == before {
			t.Errorf("frac=%g: piece holds %d of %d cells", frac, piece.NumCells(), before)
		}
		if got := h.TotalCells(0); got != before {
			t.Errorf("frac=%g: split changed total cells %d -> %d", frac, before, got)
		}
	}

	// The returned piece faces the target (index-space coordinates):
	// low target gets the low half, high target the high half.
	for _, c := range []struct {
		targetX float64
		wantLoX int
	}{{0, 0}, {8, 4}} {
		h := slabHierarchy(8, []int{8}, []int{0})
		g := h.Grids(0)[0]
		piece := splitTowards(ctxFor(t, sys, h), g, 0.5, [3]float64{c.targetX, 4, 4})
		if piece == nil || piece.Box.Lo[0] != c.wantLoX {
			t.Errorf("target x=%g: piece at x=%d, want %d", c.targetX, piece.Box.Lo[0], c.wantLoX)
		}
	}
}

func TestBalanceOverEdgeCases(t *testing.T) {
	sys := machine.WanPair(2, nil)

	// Degenerate proc sets: empty and singleton sets cannot balance.
	h := slabHierarchy(8, []int{4, 4}, []int{0, 0})
	if migs := balanceOver(ctxFor(t, sys, h), 0, nil); len(migs) != 0 {
		t.Errorf("empty proc set produced migrations: %v", migs)
	}
	if migs := balanceOver(ctxFor(t, sys, h), 0, []int{0}); len(migs) != 0 {
		t.Errorf("singleton proc set produced migrations: %v", migs)
	}

	// A level with no grids is vacuously balanced.
	if migs := balanceOver(ctxFor(t, sys, h), 1, []int{0, 1}); len(migs) != 0 {
		t.Errorf("empty level produced migrations: %v", migs)
	}

	// One unsplittable grid between two processors: moving it to the
	// idle processor just mirrors the imbalance, so nothing may move.
	h1 := slabHierarchy(8, []int{8}, []int{0})
	if migs := balanceOver(ctxFor(t, sys, h1), 0, []int{0, 1}); len(migs) != 0 {
		t.Errorf("single-grid set moved anyway: %v", migs)
	}

	// Zero-load processor in the set: work flows to it until even.
	h2 := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 0, 0})
	ctx2 := ctxFor(t, sys, h2)
	if migs := balanceOver(ctx2, 0, []int{0, 1}); len(migs) != 2 {
		t.Errorf("expected 2 slabs to move to the idle processor, got %v", migs)
	}
	cells := procCells(ctx2, 0)
	if cells[0] != cells[1] {
		t.Errorf("post-balance loads %v, want even split", cells)
	}

	// Grids owned outside the proc set are invisible: never counted,
	// never moved.
	h3 := slabHierarchy(8, []int{4, 2, 2}, []int{2, 0, 0})
	ctx3 := ctxFor(t, sys, h3)
	migs := balanceOver(ctx3, 0, []int{0, 1})
	for _, m := range migs {
		if m.From == 2 || m.To == 2 {
			t.Errorf("migration touched out-of-set processor: %+v", m)
		}
	}
	if got := procCells(ctx3, 0)[2]; got != 256 {
		t.Errorf("out-of-set processor's load changed: %v cells", got)
	}
}

// threeGroupSystem builds a 3-group, one-processor-per-group machine
// over a LAN fabric — the smallest shape where receiver selection can
// pick a wrong group while a right one exists.
func threeGroupSystem() *machine.System {
	fab := netsim.NewFabric(3)
	for i := 0; i < 3; i++ {
		fab.SetIntra(i, netsim.OriginInterconnect())
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			fab.SetInter(a, b, netsim.GigabitLAN(nil))
		}
	}
	return machine.New([]machine.GroupSpec{
		{Name: "g0", Procs: 1, Perf: 1},
		{Name: "g1", Procs: 1, Perf: 1},
		{Name: "g2", Procs: 1, Perf: 1},
	}, fab, machine.DefaultFlopsPerSecond)
}

// TestGlobalBalanceSkipsDeadGroups is the regression for the defect
// the scenario fuzzer caught: a group whose every processor has
// failed reads as minimally loaded, and choosing it as the receiver
// parks level-0 grids on dead processors. Dead groups must be
// excluded from donor/receiver selection entirely.
func TestGlobalBalanceSkipsDeadGroups(t *testing.T) {
	sys := threeGroupSystem()
	sys.SetHealth(1, 0) // group 1's only processor is dead

	// Donor group 0 holds 384 cells, alive group 2 holds 128, dead
	// group 1 holds nothing — exactly the minimum-work group.
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 0, 2})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Invoked {
		t.Fatalf("imbalance between the two alive groups must redistribute: %+v", d)
	}
	for _, m := range d.Migrations {
		if m.To == 1 {
			t.Errorf("migration sent grid %d to dead processor 1", m.Grid)
		}
		if sys.GroupOf(m.To) != 2 {
			t.Errorf("migration to group %d, want alive receiver group 2: %+v", sys.GroupOf(m.To), m)
		}
	}
	for _, g := range h.Grids(0) {
		if g.Owner == 1 {
			t.Errorf("grid %d parked on dead processor 1", g.ID)
		}
	}
}

// TestGlobalBalanceDegradesWhenReceiverGroupDead: with only two
// groups, losing one entirely leaves no global phase at all — the
// scheme must degrade to local-only balancing rather than ship work
// to the dead side.
func TestGlobalBalanceDegradesWhenReceiverGroupDead(t *testing.T) {
	sys := machine.WanPair(2, nil)
	sys.SetHealth(2, 0)
	sys.SetHealth(3, 0)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 1, 1})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Degraded {
		t.Errorf("one alive group must degrade to local-only balancing: %+v", d)
	}
	for _, m := range d.Migrations {
		if m.To == 2 || m.To == 3 {
			t.Errorf("migration to dead processor: %+v", m)
		}
	}
}
