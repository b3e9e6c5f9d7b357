package engine

import (
	"math"
	"testing"

	"samrdlb/internal/dlb"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

// TestForecastCostSaneUnderTotalProbeLoss drives the NWS fallback
// property test through the engine: probes feed the forecast history
// early in the run, then every probe is lost (p=1) for the rest of
// it. Decisions must fall back to the forecast, and no decision —
// forecast-fed or probed — may carry a negative, NaN or infinite
// Gain/Cost/γ/δ into the Eq. 1 comparison.
func TestForecastCostSaneUnderTotalProbeLoss(t *testing.T) {
	bt := boundaryClocks(t, 8)
	lossStart := (bt[1] + bt[2]) / 2
	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.ProbeLoss, A: 0, B: 1, Start: lossStart, End: 1e9, Prob: 1})
	if err != nil {
		t.Fatal(err)
	}
	var decisions []dlb.GlobalDecision
	res := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: sched, UseForecast: true,
		Invariants: func(pi *PhaseInfo) {
			if pi.Phase == PhaseGlobalBalance && pi.Decision != nil {
				decisions = append(decisions, *pi.Decision)
			}
		},
	}).Run()

	usedForecast := false
	for i, d := range decisions {
		if d.UsedForecast {
			usedForecast = true
		}
		if !d.GainCostValid {
			continue
		}
		for _, v := range []struct {
			name string
			val  float64
		}{{"gain", d.Gain}, {"cost", d.Cost}, {"gamma", d.Gamma}, {"delta", d.Delta}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				t.Errorf("decision %d: %s = %v (forecast=%v probe-failed=%v)",
					i, v.name, v.val, d.UsedForecast, d.ProbeFailed)
			}
		}
	}
	if res.ProbeFallbacks == 0 || !usedForecast {
		t.Fatalf("total probe loss with history must fall back to the forecast: fallbacks=%d used=%v",
			res.ProbeFallbacks, usedForecast)
	}
}

// TestQuarantineCatchupWithinOneStep pins the recovery latency claim:
// after an outage window closes, the forced catch-up gain/cost
// evaluation fires at the first level-0 boundary past the recovery —
// not a step later. The step whose AfterStep sees the run's
// CatchupEvals counter grow is the observable.
func TestQuarantineCatchupWithinOneStep(t *testing.T) {
	bt := boundaryClocks(t, 8)
	outStart := (bt[0] + bt[1]) / 2
	outEnd := (bt[2] + bt[3]) / 2
	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.LinkOutage, A: 0, B: 1, Start: outStart, End: outEnd})
	if err != nil {
		t.Fatal(err)
	}
	var forcedSteps []int
	var clocks []float64
	catchups := 0
	res := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: sched,
		AfterStep: func(step int, rr *Runner) {
			clocks = append(clocks, rr.Clock().Now())
			if n := rr.counters().CatchupEvals; n > catchups {
				forcedSteps = append(forcedSteps, step)
				catchups = n
			}
		},
	}).Run()

	if res.QuarantinedSteps < 1 {
		t.Fatalf("outage spanning two boundaries must quarantine the link, got %d steps", res.QuarantinedSteps)
	}
	if res.CatchupEvals < 1 {
		t.Fatalf("lifting the outage must force a catch-up evaluation, got %d", res.CatchupEvals)
	}
	if len(forcedSteps) == 0 {
		t.Fatal("no step's CatchupEvals grew")
	}
	sF := forcedSteps[0]
	if clocks[sF] < outEnd {
		t.Errorf("catch-up at step %d (t=%.4f) before the outage lifted (t=%.4f)", sF, clocks[sF], outEnd)
	}
	if sF > 0 && clocks[sF-1] >= outEnd {
		t.Errorf("link recovered before step %d ended (t=%.4f >= %.4f) but the catch-up waited until step %d",
			sF-1, clocks[sF-1], outEnd, sF)
	}
}
