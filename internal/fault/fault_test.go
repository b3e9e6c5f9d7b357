package fault

import (
	"strings"
	"testing"
)

func mustSchedule(t *testing.T, seed int64, events ...Event) *Schedule {
	t.Helper()
	s, err := NewSchedule(seed, events...)
	if err != nil {
		t.Fatalf("NewSchedule: %v", err)
	}
	return s
}

func TestLinkDownWindows(t *testing.T) {
	s := mustSchedule(t, 1,
		Event{Kind: LinkOutage, A: 0, B: 1, Start: 2, End: 5},
		Event{Kind: GroupDisconnect, Group: 2, Start: 10, End: 12},
	)
	cases := []struct {
		a, b int
		t    float64
		want bool
	}{
		{0, 1, 1.9, false},
		{0, 1, 2, true},
		{1, 0, 4.9, true}, // order-insensitive
		{0, 1, 5, false},  // half-open window
		{0, 2, 3, false},  // different pair untouched
		{0, 2, 10, true},  // group disconnect downs every inter link
		{1, 2, 11.9, true},
		{2, 2, 11, false}, // intra link of the disconnected group survives
		{0, 1, 11, false},
	}
	for _, c := range cases {
		if got := s.LinkDown(c.a, c.b, c.t); got != c.want {
			t.Errorf("LinkDown(%d,%d,%g) = %v, want %v", c.a, c.b, c.t, got, c.want)
		}
	}
}

func TestDegradeAndProcFactors(t *testing.T) {
	s := mustSchedule(t, 1,
		Event{Kind: LinkDegrade, A: 0, B: 1, Start: 0, End: 10, Factor: 2},
		Event{Kind: LinkDegrade, A: 0, B: 1, Start: 5, End: 10, Factor: 3},
		Event{Kind: ProcSlowdown, Proc: 3, Start: 1, End: 4, Factor: 0.5},
		Event{Kind: ProcFailure, Proc: 2, Start: 6},
	)
	if f := s.DegradeFactor(0, 1, 1); f != 2 {
		t.Errorf("degrade at t=1: %g", f)
	}
	if f := s.DegradeFactor(0, 1, 6); f != 6 {
		t.Errorf("overlapping degrades must compound: %g", f)
	}
	if f := s.DegradeFactor(0, 1, 11); f != 1 {
		t.Errorf("degrade after window: %g", f)
	}
	if f := s.ProcFactor(3, 2); f != 0.5 {
		t.Errorf("slowdown factor: %g", f)
	}
	if f := s.ProcFactor(3, 5); f != 1 {
		t.Errorf("slowdown after window: %g", f)
	}
	if f := s.ProcFactor(2, 7); f != 0 {
		t.Errorf("failed proc must report 0, got %g", f)
	}
	if f := s.ProcFactor(2, 5); f != 1 {
		t.Errorf("proc healthy before failure, got %g", f)
	}
}

func TestProbeDropDeterministic(t *testing.T) {
	mk := func() *Schedule {
		return mustSchedule(t, 42,
			Event{Kind: ProbeLoss, A: 0, B: 1, Start: 0, End: 100, Prob: 0.5})
	}
	a, b := mk(), mk()
	var seqA, seqB []bool
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.DropProbe(0, 1, 10))
		seqB = append(seqB, b.DropProbe(0, 1, 10))
	}
	drops := 0
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("drop sequence diverges at %d", i)
		}
		if seqA[i] {
			drops++
		}
	}
	if drops < 60 || drops > 140 {
		t.Errorf("drop rate implausible for p=0.5: %d/200", drops)
	}
	// A different seed must give a different sequence.
	c := mustSchedule(t, 43,
		Event{Kind: ProbeLoss, A: 0, B: 1, Start: 0, End: 100, Prob: 0.5})
	diff := false
	for i := 0; i < 200; i++ {
		if c.DropProbe(0, 1, 10) != seqA[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("seed change did not change the drop sequence")
	}
	// Outside the loss window nothing drops (but the sequence advances).
	d := mk()
	for i := 0; i < 50; i++ {
		if d.DropProbe(0, 1, 200) {
			t.Fatal("drop outside window")
		}
	}
}

func TestFailuresIn(t *testing.T) {
	s := mustSchedule(t, 1,
		Event{Kind: ProcFailure, Proc: 4, Start: 3},
		Event{Kind: ProcFailure, Proc: 1, Start: 7},
	)
	if got := s.FailuresIn(0, 2.9); len(got) != 0 {
		t.Errorf("early window: %v", got)
	}
	if got := s.FailuresIn(0, 3); len(got) != 1 || got[0] != 4 {
		t.Errorf("inclusive end: %v", got)
	}
	if got := s.FailuresIn(3, 10); len(got) != 1 || got[0] != 1 {
		t.Errorf("exclusive start: %v", got)
	}
}

func TestValidation(t *testing.T) {
	bad := []Event{
		{Kind: LinkOutage, A: 0, B: 1, Start: 5, End: 5},               // empty window
		{Kind: LinkOutage, A: -1, B: 1, Start: 0, End: 1},              // bad group
		{Kind: LinkDegrade, A: 0, B: 1, Start: 0, End: 1, Factor: 0.5}, // speeds up
		{Kind: ProcSlowdown, Proc: 0, Start: 0, End: 1, Factor: 2},     // >1
		{Kind: ProbeLoss, A: 0, B: 1, Start: 0, End: 1, Prob: 1.5},     // bad prob
		{Kind: ProcFailure, Proc: 0, Start: -1},                        // negative time
	}
	for i, e := range bad {
		if _, err := NewSchedule(1, e); err == nil {
			t.Errorf("event %d (%s) must not validate", i, e)
		}
	}
}

func TestScriptRoundTrip(t *testing.T) {
	src := `
# demo script
link-outage between=0,1 start=2 end=6
link-degrade between=0,1 start=0 end=2 factor=4
probe-loss between=1,0 start=1 end=4 prob=0.8
proc-slow proc=3 start=0.5 end=1.5 factor=0.25
proc-fail proc=2 at=4.5
group-disconnect group=1 start=7 end=9
`
	events, err := ParseScript(strings.NewReader(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(events))
	}
	if events[0].Kind != LinkOutage || events[0].A != 0 || events[0].B != 1 ||
		events[0].Start != 2 || events[0].End != 6 {
		t.Errorf("outage parsed wrong: %+v", events[0])
	}
	if events[4].Kind != ProcFailure || events[4].Proc != 2 || events[4].Start != 4.5 {
		t.Errorf("proc-fail parsed wrong: %+v", events[4])
	}
	// Round trip through the formatter.
	again, err := ParseScript(strings.NewReader(FormatScript(events)))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(again) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(again), len(events))
	}
	for i := range events {
		if again[i] != events[i] {
			t.Errorf("event %d changed in round trip: %+v vs %+v", i, events[i], again[i])
		}
	}
}

func TestScriptErrors(t *testing.T) {
	bad := []string{
		"explode between=0,1 start=0 end=1",
		"link-outage between=0 start=0 end=1",
		"link-outage between=0,1 start=x end=1",
		"link-outage between=0,1 start=0 end=1 wat=1",
		"link-outage between=0,1 start=0",
		"proc-slow proc=1 start=0 end=1", // missing factor
	}
	for _, src := range bad {
		if _, err := ParseScript(strings.NewReader(src)); err == nil {
			t.Errorf("script %q must not parse", src)
		}
	}
}

func TestValidateAgainstSystemSize(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"proc-fail-oob", Event{Kind: ProcFailure, Proc: 99, Start: 1}, "proc 99"},
		{"proc-slow-oob", Event{Kind: ProcSlowdown, Proc: 8, Start: 0, End: 1, Factor: 0.5}, "proc 8"},
		{"link-group-oob", Event{Kind: LinkOutage, A: 0, B: 5, Start: 0, End: 1}, "group pair"},
		{"disconnect-oob", Event{Kind: GroupDisconnect, Group: 2, Start: 0, End: 1}, "group 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSchedule(1, tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Validate(8, 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate(8, 2) = %v, want error mentioning %q", err, tc.want)
			}
		})
	}

	ok, err := NewSchedule(1,
		Event{Kind: ProcFailure, Proc: 7, Start: 1},
		Event{Kind: LinkOutage, A: 0, B: 1, Start: 0, End: 1},
		Event{Kind: GroupDisconnect, Group: 1, Start: 0, End: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(8, 2); err != nil {
		t.Errorf("in-range events must validate, got %v", err)
	}
}
