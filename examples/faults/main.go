// Fault injection and graceful degradation: a WAN outage cuts the two
// groups apart for several level-0 steps (the run falls back to
// local-only balancing), lossy probes force the retry/backoff and
// forecast-fallback path afterwards, and a processor failure triggers
// a checkpoint restore over the survivors. The scenario is fully
// deterministic: the demo runs it twice and checks the metrics are
// byte-identical.
package main

import (
	"fmt"
	"os"
	"strings"

	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/trace"
	"samrdlb/internal/workload"
)

const steps = 8

func newRunner(sched *fault.Schedule, tr *trace.Recorder, after func(int, *engine.Runner)) *engine.Runner {
	return engine.New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), engine.Options{
		Steps: steps, MaxLevel: 1,
		Faults:    sched,
		Trace:     tr,
		AfterStep: after,
	})
}

func main() {
	// Calibration pass: an empty schedule has identical timing (the
	// same periodic checkpoints, no events), so its level-0 boundary
	// clocks tell us where to place the fault windows.
	empty, err := fault.NewSchedule(7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var bt []float64
	newRunner(empty, nil, func(step int, r *engine.Runner) {
		bt = append(bt, r.Clock().Now())
	}).Run()

	events := []fault.Event{
		// A WAN outage spanning (at least) level-0 steps 2 and 3.
		{Kind: fault.LinkOutage, A: 0, B: 1, Start: (bt[0] + bt[1]) / 2, End: (bt[3] + bt[4]) / 2},
		// The link comes back flaky for the rest of the run: most probe
		// messages are dropped, forcing retries and forecast fallbacks.
		{Kind: fault.ProbeLoss, A: 0, B: 1, Start: (bt[3] + bt[4]) / 2, End: 10 * bt[steps-1], Prob: 0.7},
		// One processor of group 1 dies late in the run.
		{Kind: fault.ProcFailure, Proc: 5, Start: (bt[5] + bt[6]) / 2},
	}
	fmt.Println("fault script:")
	fmt.Print(fault.FormatScript(events))

	run := func() (id, out string, tr *trace.Recorder) {
		sched, err := fault.NewSchedule(7, events...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr = trace.New()
		res := newRunner(sched, tr, nil).Run()
		return res.Identity(), res.String() + "\n" + res.FaultSummary(), tr
	}

	id1, out1, tr := run()
	id2, _, _ := run()

	fmt.Printf("\n%s", out1)
	fmt.Printf("\nquarantine/recovery trace:\n")
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.Quarantine, trace.Recovery, trace.Fault, trace.ProbeRetry:
			fmt.Printf("  t=%7.3f  %-12s %s\n", e.VTime, e.Kind, e.Note)
		}
	}

	if id1 != id2 {
		fmt.Fprintln(os.Stderr, "ERROR: two identical fault runs diverged")
		os.Exit(1)
	}
	fmt.Println("\nreplayed the scenario: metrics byte-identical across runs ✓")

	if !strings.Contains(out1, "processor failures:       1") {
		fmt.Fprintln(os.Stderr, "ERROR: expected exactly one processor failure in the summary")
		os.Exit(1)
	}
}
