package trace

import (
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := New()
	r.Add(Step, 0, 0.1, "")
	r.Add(Step, 1, 0.2, "")
	r.Add(LocalBalance, 1, 0.25, "migrations=2")
	r.Add(GlobalCheck, 0, 0.3, "gain=1 cost=2")
	if got := r.StepLevels(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("StepLevels = %v", got)
	}
	if r.Count(Step) != 2 || r.Count(GlobalCheck) != 1 || r.Count(Redistribution) != 0 {
		t.Error("Count wrong")
	}
	if evs := r.OfKind(LocalBalance); len(evs) != 1 || evs[0].Note != "migrations=2" {
		t.Errorf("OfKind = %v", evs)
	}
	if evs := r.OfKind(GlobalCheck, Step); len(evs) != 3 || evs[1].Level != 1 || evs[2].Kind != GlobalCheck {
		t.Errorf("OfKind of two kinds must keep recorded order: %v", evs)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(Step, 0, 0, "") // must not panic
	if r.StepLevels() != nil || r.Count(Step) != 0 || r.OfKind(Step) != nil || r.String() != "" {
		t.Error("nil recorder must behave as empty")
	}
}

func TestString(t *testing.T) {
	r := New()
	r.Add(Redistribution, 0, 1.5, "bytes=42")
	s := r.String()
	if !strings.Contains(s, "redistribution") || !strings.Contains(s, "bytes=42") {
		t.Errorf("String = %q", s)
	}
}

func TestOrderDiagram(t *testing.T) {
	r := New()
	for _, l := range []int{0, 1, 1} {
		r.Add(Step, l, 0, "")
	}
	d := r.OrderDiagram(1)
	if d != "level 0: 1\nlevel 1: 2 3\n" {
		t.Errorf("OrderDiagram = %q", d)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Step: "step", LocalBalance: "local-balance", GlobalCheck: "global-check",
		Redistribution: "redistribution", Regrid: "regrid", Kind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s", k, k.String())
		}
	}
}
