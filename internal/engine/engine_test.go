package engine

import (
	"bytes"
	"math"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/dlb"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

// mustPolicy builds the named balancer; a wrong name is a bug in the
// test.
func mustPolicy(name string) dlb.Balancer {
	b, err := dlb.NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return b
}

func TestUniformRunCompletes(t *testing.T) {
	sys := machine.Origin2000("ANL", 2)
	r := New(sys, &workload.Uniform{N0: 8, Ref: 2}, Options{Steps: 3, MaxLevel: 1})
	res := r.Run()
	if res.Total <= 0 || res.Compute() <= 0 {
		t.Errorf("run produced no time: %+v", res)
	}
	if res.Steps != 3 {
		t.Errorf("Steps = %d", res.Steps)
	}
	// Single group: no remote communication can exist.
	if res.RemoteComm() != 0 {
		t.Errorf("single-group run has remote comm %v", res.RemoteComm())
	}
	if err := r.Hierarchy().CheckProperNesting(); err != nil {
		t.Errorf("hierarchy invalid after run: %v", err)
	}
}

func TestInitLevel0CoversDomainBalanced(t *testing.T) {
	sys := machine.WanPair(2, nil)
	r := New(sys, workload.NewShockPool3D(16, 2), Options{Steps: 1})
	h := r.Hierarchy()
	if !h.Boxes(0).ContainsBox(h.Domain) {
		t.Error("level 0 must tile the domain")
	}
	if !h.Boxes(0).Disjoint() {
		t.Error("level-0 boxes must be disjoint")
	}
	// Every processor owns roughly its share.
	cells := make(map[int]int64)
	for _, g := range h.Grids(0) {
		cells[g.Owner] += g.NumCells()
	}
	want := float64(h.Domain.NumCells()) / 4
	for p := 0; p < 4; p++ {
		if math.Abs(float64(cells[p])-want) > want {
			t.Errorf("proc %d owns %d cells, want ~%v", p, cells[p], want)
		}
	}
	// Spatial assignment is contiguous in z-major order: group 0 owns
	// the low-z half of the domain.
	for _, g := range h.Grids(0) {
		if sys.GroupOf(g.Owner) == 0 && g.Box.Lo[2] >= 8 {
			t.Errorf("group 0 owns high-z box %v", g.Box)
		}
	}
}

func TestFig2ExecutionOrder(t *testing.T) {
	// Four levels, refinement factor 2: the paper's 1st..15th sequence.
	sys := machine.Origin2000("ANL", 2)
	tr := trace.New()
	r := New(sys, workload.NewStaticBlob(16, 2), Options{
		Steps: 1, MaxLevel: 3, Trace: tr, Balancer: mustPolicy("parallel"),
	})
	r.Run()
	want := []int{0, 1, 2, 3, 3, 2, 3, 3, 1, 2, 3, 3, 2, 3, 3}
	got := tr.StepLevels()
	if len(got) != len(want) {
		t.Fatalf("step count = %d, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("integration order differs at %d: got %v want %v", i+1, got, want)
		}
	}
}

func TestFig4FlowControl(t *testing.T) {
	// Global checks only after level-0 steps; local balancing only at
	// finer levels.
	sys := machine.WanPair(2, nil)
	tr := trace.New()
	r := New(sys, workload.NewShockPool3D(16, 2), Options{
		Steps: 4, MaxLevel: 2, Trace: tr,
		// Huge eps so the global check always evaluates=false... use
		// tiny eps instead so it evaluates often.
		ImbalanceEps: 1e-9,
	})
	r.Run()
	if n := tr.Count(trace.GlobalCheck); n > 4 {
		t.Errorf("global checks %d exceed level-0 steps 4", n)
	}
	for _, e := range tr.OfKind(trace.LocalBalance) {
		if e.Level == 0 {
			t.Error("local balancing must not run at level 0 for the distributed scheme")
		}
	}
	// Steps at level 0 are exactly 4.
	n0 := 0
	for _, l := range tr.StepLevels() {
		if l == 0 {
			n0++
		}
	}
	if n0 != 4 {
		t.Errorf("level-0 steps = %d", n0)
	}
}

func TestDistributedBeatsParallelOnWAN(t *testing.T) {
	// The headline claim, in miniature: same dataset, same system,
	// parallel DLB vs distributed DLB.
	traffic := &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.7, MeanQuiet: 20, MeanBusy: 10, Seed: 1}
	run := func(b dlb.Balancer) float64 {
		sys := machine.WanPair(4, traffic)
		r := New(sys, workload.NewShockPool3D(32, 2), Options{
			Steps: 6, MaxLevel: 2, Balancer: b,
		})
		return r.Run().Total
	}
	par := run(mustPolicy("parallel"))
	dist := run(mustPolicy("distributed"))
	if dist >= par {
		t.Errorf("distributed DLB (%v) should beat parallel DLB (%v) on a WAN system", dist, par)
	}
}

func TestDistributedCutsRemoteComm(t *testing.T) {
	run := func(b dlb.Balancer) *vclock.Clock {
		sys := machine.WanPair(2, nil)
		r := New(sys, workload.NewShockPool3D(16, 2), Options{
			Steps: 4, MaxLevel: 2, Balancer: b,
		})
		r.Run()
		return r.Clock()
	}
	par := run(mustPolicy("parallel"))
	dist := run(mustPolicy("distributed"))
	if dist.PhaseTotal(vclock.RemoteComm) >= par.PhaseTotal(vclock.RemoteComm) {
		t.Errorf("distributed remote comm %v should be below parallel %v",
			dist.PhaseTotal(vclock.RemoteComm), par.PhaseTotal(vclock.RemoteComm))
	}
}

func TestWithDataSolutionBounded(t *testing.T) {
	sys := machine.WanPair(2, nil)
	r := New(sys, workload.NewShockPool3D(16, 2), Options{
		Steps: 4, MaxLevel: 1, WithData: true, Pool: solver.NewPool(0),
	})
	r.Run()
	for l := 0; l <= 1; l++ {
		for _, g := range r.Hierarchy().Grids(l) {
			if m := g.Patch.MaxAbs(solver.FieldQ); m > 1+1e-9 {
				t.Fatalf("monotone advection overshot on level %d: %v", l, m)
			}
		}
	}
}

func TestWithDataMatchesPlanOnlyTiming(t *testing.T) {
	// Virtual time must not depend on whether real data is carried.
	run := func(withData bool) float64 {
		sys := machine.WanPair(2, nil)
		r := New(sys, workload.NewShockPool3D(16, 2), Options{
			Steps: 3, MaxLevel: 1, WithData: withData,
		})
		return r.Run().Total
	}
	a, b := run(false), run(true)
	if math.Abs(a-b) > 1e-9*math.Max(a, b) {
		t.Errorf("virtual time differs with data: %v vs %v", a, b)
	}
}

func TestParticlesSkewLoad(t *testing.T) {
	// AMR64's particles add level-0 work where the particles are.
	sys := machine.Origin2000("ANL", 2)
	d := workload.NewAMR64(16, 2, 3)
	r := New(sys, d, Options{Steps: 2, MaxLevel: 1})
	res := r.Run()
	if res.Total <= 0 {
		t.Fatal("run failed")
	}
	if d.Particles() == nil {
		t.Fatal("AMR64 must carry particles")
	}
}

func TestGlobalRedistributionHappensUnderImbalance(t *testing.T) {
	// ShockPool3D's moving plane loads one group more than the other;
	// over enough steps the distributed scheme must redistribute at
	// least once on a quiet network.
	sys := machine.WanPair(2, nil)
	tr := trace.New()
	r := New(sys, workload.NewShockPool3D(32, 2), Options{
		Steps: 10, MaxLevel: 2, Trace: tr,
	})
	res := r.Run()
	if res.GlobalRedists == 0 {
		t.Errorf("expected at least one global redistribution; evals=%d", res.GlobalEvals)
	}
	if res.GlobalRedists > res.GlobalEvals {
		t.Error("redistributions cannot exceed evaluations")
	}
	if tr.Count(trace.Redistribution) != res.GlobalRedists {
		t.Error("trace and result disagree on redistributions")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		sys := machine.WanPair(2, &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, Seed: 4})
		r := New(sys, workload.NewAMR64(16, 2, 5), Options{Steps: 3, MaxLevel: 1})
		return r.Run().Total
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs with same seed differ: %v vs %v", a, b)
	}
}

func TestResultBreakdownConsistent(t *testing.T) {
	sys := machine.WanPair(2, nil)
	r := New(sys, workload.NewShockPool3D(16, 2), Options{Steps: 3, MaxLevel: 1})
	res := r.Run()
	var sum float64
	for _, v := range res.Breakdown {
		sum += v
	}
	if math.Abs(sum-res.Total) > 1e-9*res.Total {
		t.Errorf("breakdown sums to %v, total %v", sum, res.Total)
	}
	if res.Utilisation <= 0 || res.Utilisation > 1+1e-12 {
		t.Errorf("utilisation out of range: %v", res.Utilisation)
	}
	if res.MaxCells <= 0 {
		t.Error("MaxCells not tracked")
	}
}

func TestSequentialBaseline(t *testing.T) {
	// One processor: no communication at all, efficiency reference.
	sys := machine.Origin2000("seq", 1)
	r := New(sys, workload.NewShockPool3D(16, 2), Options{Steps: 2, MaxLevel: 1})
	res := r.Run()
	if res.Comm() != 0 {
		t.Errorf("sequential run has comm time %v", res.Comm())
	}
	if res.Compute() <= 0 {
		t.Error("sequential run must compute")
	}
}

func TestUseMPXMatchesSharedMemoryRun(t *testing.T) {
	// The Result and every field bit agree between the mpx ranks over
	// tcp and the shared-memory data path.
	shmRes, shmRun := runTransport("", nil, nil)
	mpxRes, mpxRun := runTransport(TransportTCP, nil, nil)
	requireIdenticalRuns(t, shmRes, mpxRes, shmRun, mpxRun)
}

func TestUseMPXRequiresWithData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(machine.WanPair(1, nil), workload.NewShockPool3D(16, 2), Options{UseMPX: true, Transport: TransportTCP})
}

func TestRefluxImprovesConservation(t *testing.T) {
	// Full engine runs with and without flux correction: the refluxed
	// run's level-0 mass drift must not exceed the uncorrected one.
	// (The clamp boundary exchanges mass, so exact conservation is not
	// expected — only that refluxing never makes it worse and the two
	// runs genuinely differ.)
	run := func(reflux bool) (drift float64, sum float64) {
		sys := machine.Origin2000("ANL", 2)
		r := New(sys, workload.NewStaticBlob(16, 2), Options{
			Steps: 4, MaxLevel: 1, WithData: true, Reflux: reflux,
		})
		var before float64
		for _, g := range r.Hierarchy().Grids(0) {
			before += g.Patch.Sum(solver.FieldQ)
		}
		r.Run()
		var after float64
		for _, g := range r.Hierarchy().Grids(0) {
			after += g.Patch.Sum(solver.FieldQ)
		}
		return math.Abs(after - before), after
	}
	dNo, sNo := run(false)
	dYes, sYes := run(true)
	if sNo == sYes {
		t.Error("refluxing had no effect on the solution")
	}
	if dYes > dNo+1e-9 {
		t.Errorf("refluxing worsened conservation: %v vs %v", dYes, dNo)
	}
}

func TestRefluxOptionValidation(t *testing.T) {
	assertEnginePanics(t, "reflux without data", func() {
		New(machine.Origin2000("x", 1), workload.NewStaticBlob(8, 2), Options{Reflux: true})
	})
	assertEnginePanics(t, "reflux with mpx", func() {
		New(machine.Origin2000("x", 1), workload.NewStaticBlob(8, 2),
			Options{Reflux: true, WithData: true, UseMPX: true, Transport: TransportTCP})
	})
}

func assertEnginePanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestGradientFlaggingTracksShock(t *testing.T) {
	// Data-driven regridding: the fine grids must sit on the shock
	// front, which the solution itself defines.
	sys := machine.Origin2000("ANL", 2)
	d := workload.NewShockPool3D(16, 2)
	r := New(sys, d, Options{
		Steps: 3, MaxLevel: 1, WithData: true,
		GradientField: solver.FieldQ, GradientThreshold: 0.3,
	})
	r.Run()
	h := r.Hierarchy()
	if len(h.Grids(1)) == 0 {
		t.Fatal("gradient flagging produced no fine grids")
	}
	// The real invariant: every steep level-0 cell (the front) must be
	// covered by the fine level.
	fineCover := h.Boxes(1).Coarsen(2)
	for _, g := range h.Grids(0) {
		q := g.Patch
		g.Box.ForEach(func(i geom.Index) {
			j := i
			j[0]++
			if !g.Box.Contains(j) {
				return
			}
			if math.Abs(q.At(solver.FieldQ, j)-q.At(solver.FieldQ, i)) > 0.5 {
				if !fineCover.Contains(i) && !fineCover.Contains(j) {
					t.Fatalf("steep front cell %v not refined", i)
				}
			}
		})
	}
}

func TestGradientFlaggingRequiresData(t *testing.T) {
	assertEnginePanics(t, "gradient without data", func() {
		New(machine.Origin2000("x", 1), workload.NewShockPool3D(8, 2),
			Options{GradientField: solver.FieldQ})
	})
}

func TestFig1HierarchyShape(t *testing.T) {
	// The paper's Figure 1: a blob refined through four levels gives a
	// tree of grids — one coarse root region, nested finer regions of
	// shrinking extent, all properly nested.
	sys := machine.Origin2000("ANL", 4)
	r := New(sys, workload.NewStaticBlob(16, 2), Options{Steps: 1, MaxLevel: 3})
	r.Run()
	h := r.Hierarchy()
	if h.NumLevels() != 4 {
		t.Fatalf("expected 4 levels like Fig. 1, got %d", h.NumLevels())
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("hierarchy not properly nested: %v", err)
	}
	// Each level's refined region shrinks relative to its domain: the
	// blob radius halves per level.
	for l := 1; l <= 3; l++ {
		frac := float64(h.TotalCells(l)) / float64(h.DomainAt(l).NumCells())
		coarser := float64(h.TotalCells(l-1)) / float64(h.DomainAt(l-1).NumCells())
		if frac >= coarser {
			t.Errorf("level %d covers %.3f of its domain, not less than level %d's %.3f",
				l, frac, l-1, coarser)
		}
	}
}

func TestRefinementFactorFour(t *testing.T) {
	// One level-0 step with r=4 subcycles the fine level four times:
	// 1 + 4 = 5 step events, and dt scales accordingly.
	sys := machine.Origin2000("ANL", 2)
	tr := trace.New()
	d := workload.NewStaticBlob(16, 4)
	r := New(sys, d, Options{Steps: 1, MaxLevel: 1, Trace: tr})
	r.Run()
	want := []int{0, 1, 1, 1, 1}
	got := tr.StepLevels()
	if len(got) != len(want) {
		t.Fatalf("steps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if err := r.Hierarchy().CheckProperNesting(); err != nil {
		t.Errorf("r=4 hierarchy invalid: %v", err)
	}
	if r.Hierarchy().DomainAt(1) != geom.UnitCube(64) {
		t.Error("r=4 fine domain wrong")
	}
}

func TestInvariantsHoldEveryStep(t *testing.T) {
	// A longer run with the invariants checked after every level-0
	// step, not just at the end: proper nesting, level-0 domain
	// coverage, and monotone virtual time.
	sys := machine.WanPair(3, nil)
	var lastNow float64
	steps := 0
	r := New(sys, workload.NewShockPool3D(16, 2), Options{
		Steps: 12, MaxLevel: 2,
		AfterStep: func(step int, r *Runner) {
			steps++
			if err := r.Hierarchy().CheckProperNesting(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !r.Hierarchy().Boxes(0).ContainsBox(r.Hierarchy().Domain) {
				t.Fatalf("step %d: level 0 no longer tiles the domain", step)
			}
			if now := r.Clock().Now(); now <= lastNow {
				t.Fatalf("step %d: virtual time not advancing", step)
			} else {
				lastNow = now
			}
		},
	})
	r.Run()
	if steps != 12 {
		t.Errorf("AfterStep ran %d times", steps)
	}
}

func TestSedovBlastRuns(t *testing.T) {
	sys := machine.WanPair(2, nil)
	d := workload.NewSedovBlast(16, 2)
	r := New(sys, d, Options{Steps: 4, MaxLevel: 1, WithData: true})
	res := r.Run()
	if res.Total <= 0 {
		t.Fatal("run failed")
	}
	// The Burgers field must stay bounded by the initial amplitude.
	for _, g := range r.Hierarchy().Grids(0) {
		if m := g.Patch.MaxAbs(solver.FieldQ); m > d.Amplitude+1e-9 {
			t.Errorf("Sedov field overshot: %v", m)
		}
	}
	if err := r.Hierarchy().CheckProperNesting(); err != nil {
		t.Error(err)
	}
}

func TestResumeFromCheckpoint(t *testing.T) {
	sys := machine.WanPair(2, nil)
	d := workload.NewShockPool3D(16, 2)
	first := New(sys, d, Options{Steps: 3, MaxLevel: 1})
	first.Run()
	var buf bytes.Buffer
	if err := first.Hierarchy().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := amr.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := newRunner(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 3, MaxLevel: 1,
	}, restored, first.Time())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Time() != first.Time() {
		t.Error("resume time not applied")
	}
	// The resumed run starts from the checkpointed structure.
	if resumed.Hierarchy().TotalCells(0) != first.Hierarchy().TotalCells(0) {
		t.Error("resumed level 0 differs from checkpoint")
	}
	res := resumed.Run()
	if res.Total <= 0 {
		t.Fatal("resumed run failed")
	}
	if err := resumed.Hierarchy().CheckProperNesting(); err != nil {
		t.Errorf("resumed hierarchy invalid: %v", err)
	}
}

func TestResumeMismatchPanics(t *testing.T) {
	h := amr.New(geom.UnitCube(8), 2, 1, 1, false, "q")
	h.AddGrid(0, geom.UnitCube(8), 0, amr.NoGrid)
	// Neither New (it restores nothing) nor Resume (it compares the same
	// fields while it picks a generation) can reach this check from
	// outside: the shared constructor reports it as an error.
	_, err := newRunner(machine.Origin2000("x", 1), workload.NewShockPool3D(16, 2), Options{}, h, 0)
	if err == nil || err.Error() != "engine: checkpoint does not match the driver/options" {
		t.Errorf("domain mismatch: newRunner returned %v", err)
	}
}

func TestUseMPXMatchesOnMultiFieldWorkload(t *testing.T) {
	// AMR64 carries three fields and two kernels; the exchange over
	// tcp ranks must still be bit-identical to shared memory.
	run := func(transport string) *Runner {
		sys := machine.WanPair(2, nil)
		r := New(sys, workload.NewAMR64(16, 2, 9), Options{
			Steps: 2, MaxLevel: 1, WithData: true, UseMPX: transport != "", Transport: transport,
		})
		r.Run()
		return r
	}
	a, b := run(""), run(TransportTCP)
	for l := 0; l <= 1; l++ {
		ga, gb := a.Hierarchy().Grids(l), b.Hierarchy().Grids(l)
		if len(ga) != len(gb) {
			t.Fatalf("grid counts differ at level %d", l)
		}
		for i := range ga {
			for _, f := range a.Hierarchy().Fields {
				fa, fb := ga[i].Patch.Field(f), gb[i].Patch.Field(f)
				for k := range fa {
					if fa[k] != fb[k] {
						t.Fatalf("level %d grid %d field %s differs", l, i, f)
					}
				}
			}
		}
	}
}

func TestHistoryRecordedPerStep(t *testing.T) {
	h := metrics.NewHistory()
	sys := machine.WanPair(2, nil)
	r := New(sys, workload.NewShockPool3D(16, 2), Options{Steps: 5, MaxLevel: 1, History: h})
	r.Run()
	for _, name := range []string{"step-time", "cells", "imbalance-ratio", "remote-comm"} {
		if got := len(h.Get(name)); got != 5 {
			t.Errorf("series %s has %d points, want 5", name, got)
		}
	}
	for _, v := range h.Get("imbalance-ratio") {
		if v < 1 {
			t.Errorf("imbalance ratio below 1: %v", v)
		}
	}
}

// TestParticlesPerGridMatchesCountInRegion: the one-pass count equals
// ParticleSet.CountInRegion over each level-0 grid's physical region —
// on meshes whose spacing is and is not a power of two, as the
// particles drift, and for a particle lying exactly on a grid face.
func TestParticlesPerGridMatchesCountInRegion(t *testing.T) {
	for _, n0 := range []int{24, 32, 48, 64} {
		d := workload.NewAMR64(n0, 2, int64(n0))
		r := New(machine.LanPair(4, nil), d, Options{Steps: 1, MaxLevel: 1, GridsPerProc: 8})
		ps := d.Particles()
		dx0 := r.dx(0)
		grids := r.Hierarchy().Grids(0)
		// Put particles on faces: on the low corner of a grid in the
		// interior, on the domain's low faces, just inside its high
		// face, and on an interior face along one axis only.
		inner := grids[len(grids)/2]
		face := func(k int) float64 { return float64(k) * dx0 }
		ps.Particles[0].Pos = [3]float64{face(inner.Box.Lo[0]), face(inner.Box.Lo[1]), face(inner.Box.Lo[2])}
		ps.Particles[1].Pos = [3]float64{0, 0, 0}
		ps.Particles[2].Pos = [3]float64{math.Nextafter(1, 0), math.Nextafter(1, 0), math.Nextafter(1, 0)}
		ps.Particles[3].Pos = [3]float64{face(inner.Box.Hi[0] + 1), 0.3, 0.7}
		steps := 0
		for _, upTo := range []int{0, 1, 50} {
			for ; steps < upTo; steps++ {
				ps.Step(r.dt0, nil)
			}
			got := r.particlesPerGrid(ps)
			total := 0
			for at, g := range grids {
				var lo, hi [3]float64
				for k := 0; k < 3; k++ {
					lo[k], hi[k] = float64(g.Box.Lo[k])*dx0, float64(g.Box.Hi[k]+1)*dx0
				}
				if want := ps.CountInRegion(lo, hi); got[at] != want {
					t.Fatalf("N0=%d after %d steps: grid %v holds %d particles, CountInRegion says %d", n0, steps, g.Box, got[at], want)
				}
				total += got[at]
			}
			// Level 0 tiles the domain; only a particle the integrator
			// has since thrown out of [0,1)³ is in no grid.
			if steps == 0 && total != len(ps.Particles) {
				t.Errorf("N0=%d: %d of %d particles are in a grid", n0, total, len(ps.Particles))
			}
		}
	}
}
