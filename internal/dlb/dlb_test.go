package dlb

import (
	"math"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/load"
	"samrdlb/internal/machine"
	"samrdlb/internal/netsim"
)

// slabHierarchy builds a level-0 decomposition of an n^3 domain into
// x-slabs with the given widths and owners.
func slabHierarchy(n int, widths, owners []int) *amr.Hierarchy {
	h := amr.New(geom.UnitCube(n), 2, 1, 1, false, "q")
	x := 0
	for i, w := range widths {
		h.AddGrid(0, geom.BoxFromShape(geom.Index{x, 0, 0}, geom.Index{w, n, n}), owners[i], amr.NoGrid)
		x += w
	}
	return h
}

// ctxFor builds the context the engine would: a recorder plus a ledger
// installed as the hierarchy's listener. When the test ends the ledger
// must still equal a recomputation from the hierarchy, whatever the
// test migrated, split or regridded.
func ctxFor(t testing.TB, sys *machine.System, h *amr.Hierarchy) *Context {
	t.Helper()
	led := load.NewLedger(sys, h)
	h.SetListener(led)
	t.Cleanup(func() {
		if err := led.Verify(); err != nil {
			t.Errorf("ledger diverged from the hierarchy: %v", err)
		}
	})
	return &Context{Sys: sys, H: h, Load: load.NewRecorder(sys, h.MaxLevel), Ledger: led,
		Now: func() float64 { return 0 }}
}

// recordCellLoads snapshots each processor's level-0 cells into the
// recorder, as the engine does after a step.
func recordCellLoads(ctx *Context) {
	for p, v := range levelWork(ctx, 0) {
		ctx.Load.RecordLevelWork(p, 0, v)
	}
}

// levelWork is every processor's cell count at the level, off the
// ledger.
func levelWork(ctx *Context, level int) []float64 {
	out := make([]float64, ctx.Sys.NumProcs())
	for p := range out {
		out[p] = ctx.Ledger.ProcCells(level, p)
	}
	return out
}

func procCells(ctx *Context, level int) map[int]float64 {
	out := map[int]float64{}
	for _, g := range ctx.H.Grids(level) {
		out[g.Owner] += float64(g.NumCells())
	}
	return out
}

// subtreeWorkWalk is the iteration-weighted workload of g and its
// descendants by recursion over the hierarchy: a level-l cell advances
// RefFactor^l times per level-0 step.
func subtreeWorkWalk(ctx *Context, g *amr.Grid) float64 {
	w := float64(g.NumCells()) * math.Pow(float64(ctx.H.RefFactor), float64(g.Level))
	for _, c := range ctx.H.Children(g) {
		w += subtreeWorkWalk(ctx, c)
	}
	return w
}

// assertLedgerMatchesWalk checks every aggregate the decision path
// reads against a walk of the hierarchy.
func assertLedgerMatchesWalk(t *testing.T, ctx *Context, when string) {
	t.Helper()
	for l := 0; l <= ctx.H.MaxLevel; l++ {
		pc := procCells(ctx, l)
		for p := 0; p < ctx.Sys.NumProcs(); p++ {
			if got := ctx.Ledger.ProcCells(l, p); got != pc[p] {
				t.Errorf("%s: level %d proc %d: ledger %v cells, walk %v", when, l, p, got, pc[p])
			}
			var owned float64
			for _, g := range ctx.Ledger.Owned(l, p) {
				if g.Owner != p || g.Level != l {
					t.Errorf("%s: owned[%d][%d] lists grid %d (level %d, owner %d)", when, l, p, g.ID, g.Level, g.Owner)
				}
				owned += float64(g.NumCells())
			}
			if owned != pc[p] {
				t.Errorf("%s: level %d proc %d: owned list holds %v cells, walk %v", when, l, p, owned, pc[p])
			}
		}
	}
	groupWork := make([]float64, ctx.Sys.NumGroups())
	for _, g := range ctx.H.Grids(0) {
		w := subtreeWorkWalk(ctx, g)
		if got := ctx.Ledger.SubtreeWork(g.ID); got != w {
			t.Errorf("%s: subtree work of grid %d: ledger %v, walk %v", when, g.ID, got, w)
		}
		groupWork[ctx.Sys.GroupOf(g.Owner)] += w
	}
	for grp, want := range groupWork {
		if got := ctx.Ledger.GroupSubtreeWork(grp); got != want {
			t.Errorf("%s: group %d subtree work: ledger %v, walk %v", when, grp, got, want)
		}
		if got, want := float64(ctx.Ledger.GroupLevel0Cells(grp)), groupCells(ctx, 0, grp); got != want {
			t.Errorf("%s: group %d level-0 cells: ledger %v, walk %v", when, grp, got, want)
		}
	}
}

func groupCells(ctx *Context, level, group int) float64 {
	var sum float64
	for _, g := range ctx.H.Grids(level) {
		if ctx.Sys.GroupOf(g.Owner) == group {
			sum += float64(g.NumCells())
		}
	}
	return sum
}

func TestParallelLocalBalanceEvensAllProcs(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// 8 equal slabs, all initially on proc 0.
	h := slabHierarchy(8, []int{1, 1, 1, 1, 1, 1, 1, 1}, []int{0, 0, 0, 0, 0, 0, 0, 0})
	ctx := ctxFor(t, sys, h)
	migs := mustPolicy("parallel").LocalBalance(ctx, 0)
	if len(migs) == 0 {
		t.Fatal("expected migrations")
	}
	pc := procCells(ctx, 0)
	for p := 0; p < 4; p++ {
		if pc[p] != 128 {
			t.Errorf("proc %d has %v cells, want 128", p, pc[p])
		}
	}
	// Parallel DLB happily crosses groups.
	crossed := false
	for _, m := range migs {
		if !sys.SameGroup(m.From, m.To) {
			crossed = true
		}
	}
	if !crossed {
		t.Error("parallel DLB should migrate across groups")
	}
}

func TestDistributedLocalBalanceStaysInGroup(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// Group 0 overloaded on proc 0; group 1 balanced-ish on proc 2.
	h := slabHierarchy(8, []int{1, 1, 1, 1, 2, 2}, []int{0, 0, 0, 0, 2, 2})
	ctx := ctxFor(t, sys, h)
	migs := mustPolicy("distributed").LocalBalance(ctx, 0)
	for _, m := range migs {
		if !sys.SameGroup(m.From, m.To) {
			t.Fatalf("distributed local balance crossed groups: %+v", m)
		}
	}
	pc := procCells(ctx, 0)
	// Within group 0: procs 0,1 should split the 4 slabs evenly.
	if pc[0] != pc[1] {
		t.Errorf("group 0 not balanced: %v vs %v", pc[0], pc[1])
	}
	// Within group 1: procs 2,3 should split their two slabs.
	if pc[2] != pc[3] {
		t.Errorf("group 1 not balanced: %v vs %v", pc[2], pc[3])
	}
}

func TestBalanceRespectsPerfWeights(t *testing.T) {
	// A 2:1 performance system: the fast proc should get ~2x the work.
	sys := machine.Heterogeneous(1, 1, 0.5, nil)
	h := slabHierarchy(6, []int{1, 1, 1, 1, 1, 1}, []int{0, 0, 0, 0, 0, 0})
	ctx := ctxFor(t, sys, h)
	balanceOver(ctx, 0, []int{0, 1})
	pc := procCells(ctx, 0)
	// Total 216 cells; targets 144 (perf 1) and 72 (perf 0.5). Grid
	// granularity is 36 cells, so expect exactly 144/72.
	if pc[0] != 144 || pc[1] != 72 {
		t.Errorf("perf-weighted balance got %v / %v, want 144 / 72", pc[0], pc[1])
	}
}

func TestPlaceChildDistributedKeepsParentGroup(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{4, 4}, []int{1, 2})
	ctx := ctxFor(t, sys, h)
	parent := ctx.H.Grids(0)[1] // owned by proc 2 (group 1)
	owner := mustPolicy("distributed").PlaceChild(ctx, geom.UnitCube(2), parent)
	if sys.GroupOf(owner) != 1 {
		t.Errorf("child placed in group %d, want parent's group 1", sys.GroupOf(owner))
	}
}

func TestPlaceChildParallelPicksGloballyLeastLoaded(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := amr.New(geom.UnitCube(8), 2, 1, 1, false, "q")
	p := h.AddGrid(0, geom.UnitCube(8), 0, amr.NoGrid)
	// Existing level-1 load on procs 0..2; proc 3 idle.
	h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 4, 4}), 0, p.ID)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 4, 4}), 1, p.ID)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{8, 0, 0}, geom.Index{4, 4, 4}), 2, p.ID)
	ctx := ctxFor(t, sys, h)
	owner := mustPolicy("parallel").PlaceChild(ctx, geom.UnitCube(2), p)
	if owner != 3 {
		t.Errorf("parallel placement = %d, want idle proc 3", owner)
	}
}

func TestGlobalBalanceNoImbalanceNoAction(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{4, 4}, []int{0, 2})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if d.Evaluated || d.Invoked {
		t.Errorf("balanced system triggered global phase: %+v", d)
	}
}

func TestGlobalBalanceMovesPaperAmount(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// Donor group 0: slabs of 2 planes each, x in [0,6) = 384 cells on
	// procs 0/1; receiver group 1: x in [6,8) = 128 cells on proc 2.
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 1, 0, 2})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Evaluated || !d.Invoked {
		t.Fatalf("expected redistribution: %+v", d)
	}
	// frac = (384-128)/(2*384) = 1/3 of donor's 384 cells = 128 cells:
	// exactly the slab nearest the receiver.
	var moved int64
	for _, m := range d.Migrations {
		if sys.GroupOf(m.From) != 0 || sys.GroupOf(m.To) != 1 {
			t.Errorf("migration in wrong direction: %+v", m)
		}
		moved += ctx.H.Grid(m.Grid).NumCells()
	}
	if moved != 128 {
		t.Errorf("moved %d cells, want 128 per Fig. 6 formula", moved)
	}
	// Groups now hold 256/256.
	if groupCells(ctx, 0, 0) != 256 || groupCells(ctx, 0, 1) != 256 {
		t.Errorf("post-redistribution cells: %v / %v", groupCells(ctx, 0, 0), groupCells(ctx, 0, 1))
	}
	if d.ProbeTime <= 0 {
		t.Error("probe must consume time")
	}
	if d.Gain <= 0 || d.Cost <= 0 {
		t.Error("gain and cost must be reported")
	}
}

func TestGlobalBalanceMovesNearestGrids(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 1, 0, 2})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if len(d.Migrations) != 1 {
		t.Fatalf("expected a single slab to move, got %v", d.Migrations)
	}
	g := ctx.H.Grid(d.Migrations[0].Grid)
	// The donor slab nearest the receiver (x in [4,6)) must be the one
	// that moved — the paper's boundary shift.
	if g.Box.Lo[0] != 4 {
		t.Errorf("moved slab at x=%d, want the boundary slab at x=4", g.Box.Lo[0])
	}
}

func TestGlobalBalanceSplitsGrids(t *testing.T) {
	sys := machine.WanPair(2, nil)
	// Donor owns one big 6-plane slab (384 cells); receiver has 128.
	h := slabHierarchy(8, []int{6, 2}, []int{0, 2})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	nBefore := h.TotalCells(0)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Invoked {
		t.Fatalf("expected redistribution: %+v", d)
	}
	if h.TotalCells(0) != nBefore {
		t.Error("splitting lost cells")
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Errorf("split broke hierarchy: %v", err)
	}
	// ~128 cells (2 planes) should have moved to group 1.
	if got := groupCells(ctx, 0, 1); math.Abs(got-256) > 64 {
		t.Errorf("receiver now has %v cells, want ~256", got)
	}
	// The moved piece must be the high-x side (facing the receiver).
	for _, m := range d.Migrations {
		g := ctx.H.Grid(m.Grid)
		if g.Box.Hi[0] != 5 {
			t.Errorf("moved piece %v should abut the receiver boundary", g.Box)
		}
	}
}

func TestGlobalBalanceGammaGate(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 1, 0, 2})
	ctx := ctxFor(t, sys, h)
	ctx.Gamma = 1e12
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Evaluated {
		t.Error("imbalance should trigger evaluation")
	}
	if d.Invoked {
		t.Error("huge gamma must veto redistribution")
	}
}

func TestGlobalBalanceAdaptsToTraffic(t *testing.T) {
	// The same imbalance is worth fixing on a quiet WAN but not on a
	// congested one: the scheme "adaptively chooses an appropriate
	// action based on the current observation of the traffic".
	build := func(traffic netsim.TrafficModel) GlobalDecision {
		sys := machine.WanPair(2, traffic)
		h := slabHierarchy(32, []int{8, 8, 8, 8}, []int{0, 1, 0, 2})
		ctx := ctxFor(t, sys, h)
		recordCellLoads(ctx)
		ctx.Load.SetIntervalTime(0.2)
		return mustPolicy("distributed").GlobalBalance(ctx)
	}
	quiet := build(netsim.ConstantTraffic{Level: 0})
	busy := build(netsim.ConstantTraffic{Level: 0.9})
	if !quiet.Evaluated || !busy.Evaluated {
		t.Fatal("both runs should evaluate")
	}
	if !quiet.Invoked {
		t.Errorf("quiet network should redistribute (gain %v cost %v)", quiet.Gain, quiet.Cost)
	}
	if busy.Invoked {
		t.Errorf("congested network should defer (gain %v cost %v)", busy.Gain, busy.Cost)
	}
	if busy.Cost <= quiet.Cost {
		t.Error("congestion must raise the measured cost")
	}
}

func TestGlobalBalanceDeltaRaisesCost(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 1, 0, 2})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	ctx.Load.SetDelta(1e9) // enormous recorded repartition overhead
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if d.Invoked {
		t.Error("huge delta must veto redistribution")
	}
	if d.Cost < 1e9 {
		t.Errorf("cost must include delta: %v", d.Cost)
	}
}

func TestGlobalBalanceSingleGroupDegenerates(t *testing.T) {
	sys := machine.Origin2000("ANL", 4)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 0, 0})
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Invoked {
		t.Error("single group should fall back to plain balancing")
	}
	pc := procCells(ctx, 0)
	for p := 0; p < 4; p++ {
		if pc[p] != 128 {
			t.Errorf("proc %d has %v cells", p, pc[p])
		}
	}
}

func TestParallelGlobalBalanceReportsMigrations(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 0, 0, 0})
	ctx := ctxFor(t, sys, h)
	d := mustPolicy("parallel").GlobalBalance(ctx)
	if !d.Invoked || len(d.Migrations) == 0 || d.MovedBytes == 0 {
		t.Errorf("parallel global balance should move grids: %+v", d)
	}
	if d.Evaluated {
		t.Error("parallel scheme never evaluates gain/cost")
	}
}

func TestImbalanceHelper(t *testing.T) {
	if Imbalance(nil) != 0 || Imbalance([]float64{0, 0}) != 0 {
		t.Error("degenerate imbalance wrong")
	}
	if got := Imbalance([]float64{100, 50}); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("Imbalance = %v", got)
	}
}

func TestBalanceOverNoGridsOrOneProc(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := amr.New(geom.UnitCube(8), 2, 1, 1, false, "q")
	ctx := ctxFor(t, sys, h)
	if migs := balanceOver(ctx, 0, []int{0, 1}); migs != nil {
		t.Error("no grids should yield no migrations")
	}
	h.AddGrid(0, geom.UnitCube(8), 0, amr.NoGrid)
	if migs := balanceOver(ctx, 0, []int{0}); migs != nil {
		t.Error("single proc should yield no migrations")
	}
}

func TestNames(t *testing.T) {
	if (mustPolicy("parallel")).Name() != "parallel-dlb" || (mustPolicy("distributed")).Name() != "distributed-dlb" {
		t.Error("scheme names wrong")
	}
}

// spikeTraffic is a quiet link with one busy window [from, to).
type spikeTraffic struct{ from, to, load float64 }

func (s spikeTraffic) Load(t float64) float64 {
	if t >= s.from && t < s.to {
		return s.load
	}
	return 0
}

func TestForecastSmoothsSpikyProbes(t *testing.T) {
	// The network is quiet except for a spike exactly when the probe
	// fires. The raw probe vetoes the redistribution; a forecaster
	// trained on the quiet history recognises the spike as an outlier
	// and lets the redistribution proceed.
	spike := spikeTraffic{from: 99, to: 101, load: 0.93}
	mkCtx := func() *Context {
		sys := machine.WanPair(2, spike)
		h := slabHierarchy(32, []int{8, 8, 8, 8}, []int{0, 1, 0, 2})
		ctx := ctxFor(t, sys, h)
		recordCellLoads(ctx)
		// T chosen so gain sits between γ·cost(quiet) and γ·cost(spike).
		ctx.Load.SetIntervalTime(0.2)
		ctx.Now = func() float64 { return 100 } // probe during the spike
		return ctx
	}

	raw := mkCtx()
	dRaw := mustPolicy("distributed").GlobalBalance(raw)
	if !dRaw.Evaluated || dRaw.Invoked {
		t.Fatalf("raw probe during spike should veto: %+v", dRaw)
	}

	fc := mkCtx()
	fc.Forecast = netsim.NewForecastSet()
	link, err := fc.Sys.Net.Between(0, 1)
	if err != nil {
		t.Fatalf("Between: %v", err)
	}
	// Train the forecaster with quiet-period probes.
	for ts := 0.0; ts < 90; ts += 10 {
		a, b, _ := link.Probe(ts)
		fc.Forecast.For(link).Record(a, b)
	}
	dFc := mustPolicy("distributed").GlobalBalance(fc)
	if !dFc.Invoked {
		t.Errorf("forecast should override the spike: gain %v cost %v", dFc.Gain, dFc.Cost)
	}
	if dFc.Cost >= dRaw.Cost {
		t.Errorf("forecast cost %v should be below raw spike cost %v", dFc.Cost, dRaw.Cost)
	}
}

func TestGlobalBalanceThreeGroups(t *testing.T) {
	// Multi-site: the most overloaded site donates to the least
	// loaded; the middle site is untouched.
	sys := machine.MultiSite([]int{1, 1, 1}, nil)
	h := amr.New(geom.UnitCube(12), 2, 1, 1, false, "q")
	// Site 0: 8 planes; site 1: 3; site 2: 1.
	h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 12, 12}), 0, amr.NoGrid)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 12, 12}), 0, amr.NoGrid)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{8, 0, 0}, geom.Index{3, 12, 12}), 1, amr.NoGrid)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{11, 0, 0}, geom.Index{1, 12, 12}), 2, amr.NoGrid)
	ctx := ctxFor(t, sys, h)
	recordCellLoads(ctx)
	ctx.Load.SetIntervalTime(100)
	d := mustPolicy("distributed").GlobalBalance(ctx)
	if !d.Invoked {
		t.Fatalf("expected redistribution: %+v", d)
	}
	for _, m := range d.Migrations {
		if sys.GroupOf(m.From) != 0 || sys.GroupOf(m.To) != 2 {
			t.Errorf("migration should go site0 -> site2: %+v", m)
		}
	}
}
