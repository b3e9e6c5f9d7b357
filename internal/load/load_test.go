package load

import (
	"math"
	"testing"

	"samrdlb/internal/machine"
)

func rec2x2(t *testing.T) (*Recorder, *machine.System) {
	t.Helper()
	sys := machine.WanPair(2, nil) // procs 0,1 in group 0; 2,3 in group 1
	return NewRecorder(sys, 2), sys
}

func TestEq2LevelGroupWork(t *testing.T) {
	r, _ := rec2x2(t)
	r.RecordLevelWork(0, 0, 10)
	r.RecordLevelWork(1, 0, 20)
	r.RecordLevelWork(2, 0, 5)
	if got := r.LevelGroupWork(0, 0); got != 30 {
		t.Errorf("W^0_group0 = %v, want 30", got)
	}
	if got := r.LevelGroupWork(1, 0); got != 5 {
		t.Errorf("W^0_group1 = %v, want 5", got)
	}
}

func TestEq3GroupWorkWeightsByIterations(t *testing.T) {
	r, _ := rec2x2(t)
	// Level 0 runs once, level 1 twice, level 2 four times (r=2).
	r.RecordIteration(0)
	r.RecordIteration(1)
	r.RecordIteration(1)
	for i := 0; i < 4; i++ {
		r.RecordIteration(2)
	}
	r.RecordLevelWork(0, 0, 100) // group 0, level 0
	r.RecordLevelWork(0, 1, 10)  // group 0, level 1
	r.RecordLevelWork(0, 2, 1)   // group 0, level 2
	want := 100.0*1 + 10*2 + 1*4
	if got := r.GroupWork(0); got != want {
		t.Errorf("W_group0 = %v, want %v", got, want)
	}
	if r.nIter[1] != 2 {
		t.Errorf("nIter[1] = %d", r.nIter[1])
	}
}

func TestEq4Gain(t *testing.T) {
	r, _ := rec2x2(t)
	r.SetIntervalTime(50)
	r.RecordLevelWork(0, 0, 60) // group 0: 100
	r.RecordLevelWork(1, 0, 40)
	r.RecordLevelWork(2, 0, 30) // group 1: 50
	r.RecordLevelWork(3, 0, 20)
	// Gain = 50 * (100-50) / (2*100) = 12.5.
	if got := r.Gain(); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("Gain = %v, want 12.5", got)
	}
}

func TestGainBalancedIsZero(t *testing.T) {
	r, _ := rec2x2(t)
	r.SetIntervalTime(100)
	for p := 0; p < 4; p++ {
		r.RecordLevelWork(p, 0, 25)
	}
	if got := r.Gain(); got != 0 {
		t.Errorf("balanced gain = %v", got)
	}
}

func TestGainZeroWork(t *testing.T) {
	r, _ := rec2x2(t)
	r.SetIntervalTime(100)
	if got := r.Gain(); got != 0 {
		t.Errorf("zero-work gain = %v", got)
	}
}

func TestGainIsConservative(t *testing.T) {
	// The paper calls Eq. 4 "a very conservative estimate": it must
	// never exceed the true imbalance share T·(max-min)/max.
	r, sys := rec2x2(t)
	r.SetIntervalTime(80)
	r.RecordLevelWork(0, 0, 90)
	r.RecordLevelWork(2, 0, 10)
	upper := 80.0 * (90.0 - 10.0) / 90.0
	if g := r.Gain(); g > upper/float64(sys.NumGroups())+1e-12 {
		t.Errorf("gain %v exceeds conservative bound %v", g, upper/2)
	}
}

func TestImbalanceRatio(t *testing.T) {
	r, _ := rec2x2(t)
	r.RecordLevelWork(0, 0, 30)
	r.RecordLevelWork(2, 0, 10)
	if got := r.ImbalanceRatio(); math.Abs(got-3) > 1e-12 {
		t.Errorf("ratio = %v, want 3", got)
	}
	// All-zero loads: balanced by convention.
	r2, _ := rec2x2(t)
	if got := r2.ImbalanceRatio(); got != 1 {
		t.Errorf("zero-load ratio = %v", got)
	}
	// One empty group: effectively infinite.
	r3, _ := rec2x2(t)
	r3.RecordLevelWork(0, 0, 5)
	if got := r3.ImbalanceRatio(); got < 1e6 {
		t.Errorf("empty-group ratio = %v, want huge", got)
	}
}

func TestImbalanceRatioNormalisesByPerf(t *testing.T) {
	// Group 1 has half-speed processors: equal absolute work means
	// group 1 is actually overloaded 2x.
	sys := machine.Heterogeneous(2, 2, 0.5, nil)
	r := NewRecorder(sys, 0)
	r.RecordLevelWork(0, 0, 10)
	r.RecordLevelWork(2, 0, 10)
	if got := r.ImbalanceRatio(); math.Abs(got-2) > 1e-12 {
		t.Errorf("normalised ratio = %v, want 2", got)
	}
}

func TestProcWork(t *testing.T) {
	r, _ := rec2x2(t)
	r.RecordIteration(0)
	r.RecordIteration(1)
	r.RecordIteration(1)
	r.RecordLevelWork(1, 0, 5)
	r.RecordLevelWork(1, 1, 3)
	if got := r.ProcWork(1); got != 5+3*2 {
		t.Errorf("ProcWork = %v", got)
	}
}

func TestResetInterval(t *testing.T) {
	r, _ := rec2x2(t)
	r.RecordLevelWork(0, 0, 10)
	r.RecordIteration(1)
	r.SetDelta(3)
	r.SetIntervalTime(9)
	r.ResetInterval()
	if r.GroupWork(0) != 0 || r.ProcWork(0) != 0 || r.nIter[1] != 0 {
		t.Error("ResetInterval did not clear accumulators")
	}
	// The next interval starts from the cleared table.
	r.RecordLevelWork(0, 0, 4)
	r.RecordLevelWork(3, 1, 6)
	if r.GroupWork(0) != 4 || r.GroupWork(1) != 6 {
		t.Errorf("post-reset group works = %v, want [4 6]", r.GroupWorks())
	}
	// δ and T survive: they are history, not interval state.
	if r.Delta() != 3 || r.IntervalTime() != 9 {
		t.Error("ResetInterval must keep delta and T")
	}
}

func TestCostEq1(t *testing.T) {
	// Cost = α + β·W + δ.
	if got := Cost(0.5, 1e-6, 1e6, 0.25); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("Cost = %v, want 1.75", got)
	}
	if got := Cost(0.1, 1e-6, 0, 0); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("zero-byte cost = %v", got)
	}
}

func TestValidation(t *testing.T) {
	assertPanics(t, "bad recorder", func() { NewRecorder(machine.WanPair(2, nil), -1) })
	r, _ := rec2x2(t)
	assertPanics(t, "negative work", func() { r.RecordLevelWork(0, 0, -1) })
	assertPanics(t, "bad level", func() { r.RecordIteration(9) })
	assertPanics(t, "negative T", func() { r.SetIntervalTime(-1) })
	assertPanics(t, "negative delta", func() { r.SetDelta(-1) })
	assertPanics(t, "negative bytes", func() { Cost(0, 0, -1, 0) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
