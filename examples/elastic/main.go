// Elastic membership: every group loses one processor to a bounded
// outage and regains it mid-run. The engine detects the failure
// (checkpoint restore over the survivors), marks the processor
// rejoining when its window closes, re-admits it at the next global
// boundary, and arms a forced catch-up evaluation so load flows back
// onto it. The demo prints the membership trace and the recovery
// report, verifies both rejoined processors own work at the final
// step, and replays the whole scenario to check byte-identical
// determinism.
//
// A comparable rejoin-heavy scenario (from the generator's rejoin
// profile) replays under the oracle from the CLI:
//
//	samrsim -scenario "$(go run ./examples/elastic -print-scenario)"
package main

import (
	"flag"
	"fmt"
	"os"

	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/scenario"
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
	printScen := flag.Bool("print-scenario", false, "print a replayable rejoin-heavy scenario string and exit")
	flag.Parse()
	if *printScen {
		// A generator seed whose rejoin profile re-admits processors
		// twice; `samrsim -scenario` replays it under the oracle.
		sc := scenario.GenerateRejoin(9)
		fmt.Println(sc.Encode())
		return
	}

	// Calibration pass: an empty schedule has identical timing, so its
	// level-0 boundary clocks tell us where to place the outages.
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
		// Group 0 loses proc 1 across boundaries 1-2; it rejoins at the
		// window's end and is re-admitted at the next global boundary.
		{Kind: fault.ProcFailure, Proc: 1, Start: (bt[0] + bt[1]) / 2, End: (bt[2] + bt[3]) / 2},
		// Group 1 loses proc 5 across boundaries 2-3.
		{Kind: fault.ProcFailure, Proc: 5, Start: (bt[1] + bt[2]) / 2, End: (bt[3] + bt[4]) / 2},
	}
	fmt.Println("fault script (bounded outages — End is the rejoin time):")
	fmt.Print(fault.FormatScript(events))

	run := func() (r *engine.Runner, id, out string, tr *trace.Recorder) {
		sched, err := fault.NewSchedule(7, events...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr = trace.New()
		r = newRunner(sched, tr, nil)
		res := r.Run()
		return r, res.Identity(), res.String() + "\n" + res.FaultSummary(), tr
	}

	r, id1, out1, tr := run()
	_, id2, _, _ := run()

	fmt.Printf("\n%s", out1)
	fmt.Printf("\nmembership trace:\n")
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.Membership, trace.Quarantine, trace.Recovery, trace.Fault:
			fmt.Printf("  t=%7.3f  %-12s %s\n", e.VTime, e.Kind, e.Note)
		}
	}

	m := r.Membership()
	for _, p := range []int{1, 5} {
		if m.State(p) != machine.StateAlive {
			fmt.Fprintf(os.Stderr, "ERROR: proc %d did not end the run alive (%v)\n", p, m.State(p))
			os.Exit(1)
		}
		owned := 0.0
		for l := 0; l <= r.Hierarchy().MaxLevel; l++ {
			owned += r.Ledger().ProcCells(l, p)
		}
		if owned <= 0 {
			fmt.Fprintf(os.Stderr, "ERROR: rejoined proc %d owns no work at the final step\n", p)
			os.Exit(1)
		}
		fmt.Printf("\nproc %d re-admitted at step %d, owns %.0f cells at the final step ✓", p, m.ReadmitStep(p), owned)
	}

	if id1 != id2 {
		fmt.Fprintln(os.Stderr, "\nERROR: two identical elastic runs diverged")
		os.Exit(1)
	}
	fmt.Println("\n\nreplayed the scenario: metrics byte-identical across runs ✓")
}
