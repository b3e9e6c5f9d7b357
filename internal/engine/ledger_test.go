package engine

import (
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/fault"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

func TestLedgerOracleQuickstartConfig(t *testing.T) {
	// The examples/quickstart scenario with the ledger oracle armed:
	// after every hierarchy mutation event the incremental aggregates
	// are verified against a full recomputation (panic on divergence).
	if testing.Short() {
		t.Skip("oracle mode is O(grids) per event")
	}
	sys := machine.WanPair(4, nil)
	r := New(sys, workload.NewShockPool3D(32, 2), Options{
		Steps: 10, MaxLevel: 2, LedgerCheck: true,
	})
	res := r.Run()
	if res.LedgerEvents == 0 {
		t.Error("a full run must flow mutation events through the ledger")
	}
	if res.LedgerRebuilds != 0 {
		t.Errorf("fault-free run should never rebuild the ledger, got %d", res.LedgerRebuilds)
	}
	if err := r.Ledger().Verify(); err != nil {
		t.Errorf("final ledger state diverged: %v", err)
	}
}

func TestLedgerOracleFaultConfig(t *testing.T) {
	// The examples/faults scenario under the oracle: an outage, lossy
	// probes and a processor failure whose checkpoint recovery swaps in
	// a fresh hierarchy — the ledger must rebuild and stay exact
	// through the repartition and the rest of the run.
	bt := boundaryClocks(t, 8)
	r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: wanScenario(t, bt), LedgerCheck: true,
	})
	res := r.Run()
	if res.Recoveries != 1 {
		t.Fatalf("scenario should recover exactly once, got %d", res.Recoveries)
	}
	if res.LedgerRebuilds != 1 {
		t.Errorf("recovery must rebuild the ledger exactly once, got %d", res.LedgerRebuilds)
	}
	if res.LedgerEvents == 0 {
		t.Error("ledger events not counted across the rebuild")
	}
	if err := r.Ledger().Verify(); err != nil {
		t.Errorf("ledger diverged after recovery: %v", err)
	}
}

func TestLedgerCountersReported(t *testing.T) {
	r := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 3, MaxLevel: 1,
	})
	res := r.Run()
	if res.LedgerEvents == 0 {
		t.Error("LedgerEvents missing from the result")
	}
	if res.LedgerRebuilds != 0 {
		t.Errorf("LedgerRebuilds = %d on a fault-free run", res.LedgerRebuilds)
	}
	if res.LedgerEvents != r.Ledger().EventCount() {
		t.Errorf("result reports %d events, ledger holds %d", res.LedgerEvents, r.Ledger().EventCount())
	}
}

func TestSingleGroupRedistributionChargedWithDelta(t *testing.T) {
	// One group, grossly imbalanced level 0 (everything on proc 0,
	// injected as a restored hierarchy): the degenerate global phase
	// must book the moves as Redistribution — not LocalComm — and record
	// δ for the next Eq. 1 evaluation.
	h := amr.New(geom.UnitCube(16), 2, 1, 1, false, "q")
	for x := 0; x < 16; x += 4 {
		h.AddGrid(0, geom.BoxFromShape(geom.Index{x, 0, 0}, geom.Index{4, 16, 16}), 0, amr.NoGrid)
	}
	r, err := newRunner(machine.Origin2000("ANL", 4), workload.NewShockPool3D(16, 2), Options{
		Steps: 2, MaxLevel: 1, LedgerCheck: true,
	}, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.GlobalRedists < 1 {
		t.Fatalf("imbalanced single group must redistribute, got %d (evals %d)",
			res.GlobalRedists, res.GlobalEvals)
	}
	if res.Breakdown[vclock.Redistribution] <= 0 {
		t.Error("single-group moves must be charged to the Redistribution phase")
	}
	if r.rec.Delta() <= 0 {
		t.Error("single-group redistribution must record δ")
	}
}

func TestLedgerSurvivesRegridAndSplitStorm(t *testing.T) {
	// A deeper run whose regrids clear and rebuild fine levels every
	// step while global redistributions split level-0 grids: the
	// invariants the decision path reads must match a recompute at
	// every level-0 boundary.
	sched, err := fault.NewSchedule(3)
	if err != nil {
		t.Fatal(err)
	}
	r := New(machine.WanPair(3, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 6, MaxLevel: 2, Faults: sched, LedgerCheck: true,
		AfterStep: func(step int, rr *Runner) {
			if err := rr.Ledger().Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		},
	})
	r.Run()
}
