package engine

import (
	"math"
	"reflect"
	"testing"

	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/trace"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

// boundaryClocks runs the scenario with an empty fault schedule (so
// checkpoint charging is identical to a fault run) and returns the
// virtual clock at every level-0 boundary — the timeline tests use to
// place fault windows.
func boundaryClocks(t *testing.T, steps int) []float64 {
	t.Helper()
	sched, err := fault.NewSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: steps, MaxLevel: 1, Faults: sched,
		AfterStep: func(step int, rr *Runner) {
			times = append(times, rr.Clock().Now())
		},
	})
	r.Run()
	return times
}

// wanScenario is the acceptance scenario of the fault issue: a WAN
// outage spanning at least two level-0 steps, a probe-loss window
// after it, and one processor failure later in the run.
func wanScenario(t *testing.T, bt []float64) *fault.Schedule {
	t.Helper()
	a := (bt[0] + bt[1]) / 2
	b := (bt[3] + bt[4]) / 2
	tf := (bt[5] + bt[6]) / 2
	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.LinkOutage, A: 0, B: 1, Start: a, End: b},
		fault.Event{Kind: fault.ProbeLoss, A: 0, B: 1, Start: b, End: tf, Prob: 0.7},
		fault.Event{Kind: fault.ProcFailure, Proc: 5, Start: tf},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestFaultScenarioGracefulDegradationAndRecovery(t *testing.T) {
	bt := boundaryClocks(t, 8)
	tr := trace.New()
	r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: wanScenario(t, bt), Trace: tr,
	})
	res := r.Run()

	if res.QuarantinedSteps < 2 {
		t.Errorf("outage should quarantine >=2 level-0 boundaries, got %d", res.QuarantinedSteps)
	}
	if res.CatchupEvals < 1 {
		t.Errorf("closing the outage window should force a catch-up evaluation, got %d", res.CatchupEvals)
	}
	if res.FailedProcs != 1 || res.Recoveries != 1 {
		t.Errorf("one failure, one recovery expected: failed=%d recoveries=%d",
			res.FailedProcs, res.Recoveries)
	}
	if res.RecoveryTime <= 0 {
		t.Error("recovery must record lost+replayed wall time")
	}
	if res.Breakdown[vclock.Recovery] <= 0 {
		t.Error("checkpoint/restore cost must appear in the Recovery phase")
	}
	if res.FaultEvents != 3 {
		t.Errorf("FaultEvents = %d, want 3", res.FaultEvents)
	}
	if !res.Faulty() || res.FaultSummary() == "" {
		t.Error("result must report itself faulty with a non-empty summary")
	}

	// During the outage the run performs only local balancing: between
	// the first quarantine event and the lift, no global evaluation or
	// redistribution may appear in the trace.
	first, lifted := -1, -1
	for i, e := range tr.Events {
		if e.Kind == trace.Quarantine {
			if e.Note == "lifted; catch-up evaluation armed" {
				if lifted < 0 {
					lifted = i
				}
			} else if first < 0 {
				first = i
			}
		}
	}
	if first < 0 || lifted < 0 || lifted <= first {
		t.Fatalf("expected quarantine window in trace (first=%d lifted=%d)", first, lifted)
	}
	for _, e := range tr.Events[first:lifted] {
		if e.Kind == trace.GlobalCheck || e.Kind == trace.Redistribution {
			t.Errorf("global phase ran during the outage: %+v", e)
		}
	}
	if tr.Count(trace.Recovery) < 2 { // >=1 checkpoint + 1 restore
		t.Errorf("trace should carry checkpoint/restore events, got %d", tr.Count(trace.Recovery))
	}
	if tr.Count(trace.Fault) == 0 {
		t.Error("processor failure must appear as a fault trace event")
	}

	// The failed processor owns nothing after recovery.
	for l := 0; l <= r.Hierarchy().MaxLevel; l++ {
		for _, g := range r.Hierarchy().Grids(l) {
			if g.Owner == 5 {
				t.Fatalf("grid %d still owned by failed processor 5", g.ID)
			}
		}
	}
}

func TestFaultScenarioDeterministicReplay(t *testing.T) {
	bt := boundaryClocks(t, 8)
	run := func() ([]trace.Event, interface{}) {
		tr := trace.New()
		r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 8, MaxLevel: 1, Faults: wanScenario(t, bt), Trace: tr,
		})
		return tr.Events, *r.Run()
	}
	e1, r1 := run()
	e2, r2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("full results differ between identical runs:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("traces differ between identical runs (%d vs %d events)", len(e1), len(e2))
	}
}

func TestProbeRetryTimeChargedToDelta(t *testing.T) {
	// Probe loss over the whole run, huge gamma so no redistribution
	// ever runs (SetDelta would overwrite the accumulator): every bit
	// of delta must then come from AddDelta(retry time).
	sched, err := fault.NewSchedule(11,
		fault.Event{Kind: fault.ProbeLoss, A: 0, B: 1, Start: 0, End: 1e9, Prob: 0.6},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 6, MaxLevel: 1, Faults: sched, Gamma: 1e12,
	})
	res := r.Run()
	if res.ProbeRetries == 0 {
		t.Fatal("probe loss at p=0.6 over the whole run should force retries")
	}
	if res.RetryTime <= 0 {
		t.Fatal("retries must accumulate retry time")
	}
	if got := r.rec.Delta(); math.Abs(got-res.RetryTime) > 1e-12 {
		t.Errorf("delta = %g, want retry time %g charged into it", got, res.RetryTime)
	}
	if res.GlobalRedists != 0 {
		t.Errorf("gamma veto should prevent redistribution, got %d", res.GlobalRedists)
	}
}

func TestProbeRetryDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) (int, int, float64) {
		sched, err := fault.NewSchedule(seed,
			fault.Event{Kind: fault.ProbeLoss, A: 0, B: 1, Start: 0, End: 1e9, Prob: 0.5},
		)
		if err != nil {
			t.Fatal(err)
		}
		r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 6, MaxLevel: 1, Faults: sched,
		})
		res := r.Run()
		return res.ProbeRetries, res.ProbeFallbacks, res.RetryTime
	}
	a1, b1, c1 := run(3)
	a2, b2, c2 := run(3)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Errorf("same seed must replay identically: (%d,%d,%g) vs (%d,%d,%g)", a1, b1, c1, a2, b2, c2)
	}
}

func TestProcSlowdownInflatesComputeTime(t *testing.T) {
	base := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 3, MaxLevel: 1,
	}).Run()
	sched, err := fault.NewSchedule(1,
		fault.Event{Kind: fault.ProcSlowdown, Proc: 0, Start: 0, End: 1e9, Factor: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	slow := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 3, MaxLevel: 1, Faults: sched,
	}).Run()
	if slow.Compute() <= base.Compute() {
		t.Errorf("a 4x slowdown of proc 0 must inflate compute time: base %g, slow %g",
			base.Compute(), slow.Compute())
	}
}
