package engine

import (
	"testing"

	"samrdlb/internal/machine"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// The datacheck oracle re-runs every planned ghost fill and
// restriction against the scan-based baseline and panics on any
// bitwise divergence, so these runs fail loudly if the cached
// data-motion plan ever drifts from the original semantics.

func TestDataCheckQuickstartConfig(t *testing.T) {
	// The examples/quickstart scenario carrying real field data, with
	// the oracle armed and a worker pool attached (pooled execution
	// must also be bit-exact).
	if testing.Short() {
		t.Skip("oracle mode re-runs the scan fill every exchange")
	}
	r := New(machine.WanPair(4, nil), workload.NewShockPool3D(32, 2), Options{
		Steps: 6, MaxLevel: 2, WithData: true, DataCheck: true,
		Pool: solver.NewPool(4),
	})
	res := r.Run()
	if res.Steps != 6 {
		t.Fatalf("run did not complete: %d steps", res.Steps)
	}
}

func TestDataCheckShockPoolSequential(t *testing.T) {
	// Same workload without a pool: the sequential plan executor goes
	// through the oracle too.
	r := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 5, MaxLevel: 1, WithData: true, DataCheck: true,
	})
	res := r.Run()
	if res.Steps != 5 {
		t.Fatalf("run did not complete: %d steps", res.Steps)
	}
}

func TestDataCheckFaultRecoveryConfig(t *testing.T) {
	// The faults scenario: an outage, lossy probes and a processor
	// failure with checkpoint recovery swapping in a fresh hierarchy —
	// the rebuilt hierarchy's plans must still match the scan baseline
	// through the repartition and the rest of the run.
	if testing.Short() {
		t.Skip("oracle mode re-runs the scan fill every exchange")
	}
	bt := boundaryClocks(t, 8)
	r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: wanScenario(t, bt),
		WithData: true, DataCheck: true, Pool: solver.NewPool(4),
	})
	res := r.Run()
	if res.Recoveries != 1 {
		t.Fatalf("scenario should recover exactly once, got %d", res.Recoveries)
	}
}

func TestDataCheckResumeFromCheckpoint(t *testing.T) {
	// Crash/resume through the durable store with the oracle armed on
	// both the original and the resumed runner: resumed hierarchies
	// build their plans from restored state.
	if testing.Short() {
		t.Skip("oracle mode re-runs the scan fill every exchange")
	}
	testResumeIdentity(t, memDir, []int{3}, func() workload.Driver {
		return workload.NewShockPool3D(16, 2)
	}, func(o *Options) {
		o.WithData = true
		o.DataCheck = true
		o.Pool = solver.NewPool(2)
	})
}
