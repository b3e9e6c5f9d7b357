package vclock

import (
	"math"
	"testing"
)

func TestAddPhaseTakesMax(t *testing.T) {
	c := New(3)
	worst := c.AddPhase(Compute, []float64{1, 3, 2})
	if worst != 3 {
		t.Errorf("worst = %v", worst)
	}
	if c.Now() != 3 {
		t.Errorf("Now = %v", c.Now())
	}
	if c.PhaseTotal(Compute) != 3 {
		t.Errorf("PhaseTotal = %v", c.PhaseTotal(Compute))
	}
	if busy := c.State().Busy; busy[0] != 1 || busy[1] != 3 || busy[2] != 2 {
		t.Error("per-proc busy wrong")
	}
}

func TestUtilisationReflectsImbalance(t *testing.T) {
	c := New(2)
	c.AddPhase(Compute, []float64{1, 1})
	if u := c.Utilisation(); math.Abs(u-1) > 1e-15 {
		t.Errorf("balanced utilisation = %v", u)
	}
	c2 := New(2)
	c2.AddPhase(Compute, []float64{0, 2})
	if u := c2.Utilisation(); math.Abs(u-0.5) > 1e-15 {
		t.Errorf("imbalanced utilisation = %v", u)
	}
	// Empty clock is conventionally fully utilised.
	if New(4).Utilisation() != 1 {
		t.Error("fresh clock utilisation should be 1")
	}
}

func TestAddUniform(t *testing.T) {
	c := New(4)
	c.AddUniform(RemoteComm, 2)
	if c.Now() != 2 || c.PhaseTotal(RemoteComm) != 2 {
		t.Error("AddUniform accounting wrong")
	}
	if c.Utilisation() != 1 {
		t.Error("uniform phase must keep utilisation 1")
	}
}

func TestPhasesAccumulateIndependently(t *testing.T) {
	c := New(1)
	c.AddPhase(Compute, []float64{1})
	c.AddPhase(LocalComm, []float64{2})
	c.AddPhase(RemoteComm, []float64{3})
	c.AddPhase(DLBOverhead, []float64{0.5})
	c.AddPhase(Redistribution, []float64{0.25})
	c.AddPhase(Regrid, []float64{0.125})
	if c.Now() != 6.875 {
		t.Errorf("Now = %v", c.Now())
	}
	b := c.Breakdown()
	if b[Compute] != 1 || b[LocalComm]+b[RemoteComm] != 5 || b[Regrid] != 0.125 {
		t.Error("Breakdown wrong")
	}
}

func TestPhaseString(t *testing.T) {
	if Compute.String() != "compute" || RemoteComm.String() != "remote-comm" {
		t.Error("phase names wrong")
	}
	if Phase(99).String() != "phase(99)" {
		t.Error("out-of-range phase name wrong")
	}
}

func TestValidation(t *testing.T) {
	assertPanics(t, "zero procs", func() { New(0) })
	c := New(2)
	assertPanics(t, "wrong len", func() { c.AddPhase(Compute, []float64{1}) })
	assertPanics(t, "negative", func() { c.AddPhase(Compute, []float64{1, -1}) })
	assertPanics(t, "negative uniform", func() { c.AddUniform(Compute, -1) })
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
