package fault

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomEvent builds a valid event of kind k the way the parser would
// have: the fields the kind does not use hold the parser's "unset"
// values, so the event compares equal to its own re-parse.
func randomEvent(rng *rand.Rand, k Kind) Event {
	e := Event{Kind: k, A: -1, B: -1, Group: -1, Proc: -1}
	switch rng.Intn(3) {
	case 0:
		e.Start = float64(rng.Intn(100))
	case 1:
		e.Start = rng.Float64() * 1e-6
	default:
		e.Start = rng.ExpFloat64() * 1e9
	}
	switch k {
	case ProcRecovery, GroupReconnect, WorkerKill:
		// Instantaneous.
	case ProcFailure:
		e.End = e.Start // permanent, as "at=" alone parses
		if rng.Intn(2) == 0 {
			e.End = 2*e.Start + 1 // bounded outage
		}
	default:
		e.End = 2*e.Start + 1
	}
	switch k {
	case LinkOutage, LinkDegrade, ProbeLoss:
		e.A, e.B = rng.Intn(8), rng.Intn(8)
	case ProcSlowdown, ProcFailure, ProcRecovery:
		e.Proc = rng.Intn(64)
	case GroupDisconnect, GroupReconnect, WorkerKill:
		e.Group = rng.Intn(8)
	}
	switch k {
	case LinkDegrade:
		e.Factor = 1 + 9*rng.Float64()
	case ProcSlowdown:
		e.Factor = 1 - 0.99*rng.Float64()
	case DiskTornWrite:
		e.Factor = rng.Float64()
	case ProbeLoss:
		e.Prob = rng.Float64()
	case DiskWriteError:
		if rng.Intn(2) == 0 {
			e.Prob = rng.Float64()
		}
	}
	return e
}

// TestScriptRoundTripEveryKind is the script format's round-trip
// property, over every kind: ParseScript(FormatScript(events)) == events.
func TestScriptRoundTripEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var events []Event
	for k := LinkOutage; k.String() != "unknown"; k++ {
		for i := 0; i < 50; i++ {
			events = append(events, randomEvent(rng, k))
		}
	}
	if n := len(events) / 50; n != int(WorkerKill)+1 {
		t.Fatalf("generated %d kinds, the package has %d", n, int(WorkerKill)+1)
	}
	if _, err := NewSchedule(1, events...); err != nil {
		t.Fatalf("the generator built an invalid event: %v", err)
	}
	got, err := ParseScript(strings.NewReader(FormatScript(events)))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip changed the event count: %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d changed in the round trip:\n  was %+v\n  now %+v\n  via %q", i, events[i], got[i], events[i])
		}
	}
}

// FuzzParseScript feeds the script decoder arbitrary text. It may
// reject it, never panic; and what it accepts must be a schedule the
// rest of the package can query and must survive its own rendering.
func FuzzParseScript(f *testing.F) {
	f.Add("# comment\n\nlink-outage between=0,1 start=2 end=6\nproc-fail proc=2 at=4.5\n")
	f.Add("link-degrade between=0,1 start=0 end=2 factor=4\nprobe-loss between=1,0 start=1 end=4 prob=0.8")
	f.Add("proc-slow proc=3 start=0.5 end=1.5 factor=0.25\nproc-fail proc=2 at=12 end=20\nproc-recover proc=3 at=25")
	f.Add("group-disconnect group=1 start=7 end=9\ngroup-reconnect group=1 at=8\nworker-kill group=1 at=2")
	f.Add("disk-torn-write start=2 end=6 factor=0.4\ndisk-bit-flip start=1 end=2\ndisk-write-error start=0 end=9 prob=0.5")
	f.Add("link-outage between=0, start=0 end=1")
	f.Add("proc-fail")
	f.Add("=")
	f.Fuzz(func(t *testing.T, src string) {
		events, err := ParseScript(strings.NewReader(src))
		if err != nil {
			return
		}
		s, err := NewSchedule(1, events...)
		if err != nil {
			t.Fatalf("ParseScript accepted what NewSchedule rejects: %v", err)
		}
		// Validate may reject indices beyond this system; it and the
		// queries must not panic on any accepted script.
		_ = s.Validate(8, 2)
		for _, at := range []float64{0, 1, 1e9} {
			s.LinkDown(0, 1, at)
			s.DegradeFactor(0, 1, at)
			s.DropProbe(0, 1, at)
			s.ProcFactor(0, at)
			s.GroupDown(0, at)
			s.ForDisk().WriteError(0, at)
			s.ForDisk().TornWrite(0, at)
			s.ForDisk().FlipBit(0, at)
		}
		s.FailuresIn(0, 1e9)
		s.WorkerKills()
		again, err := ParseScript(strings.NewReader(FormatScript(events)))
		if err != nil {
			t.Fatalf("the rendering of an accepted script does not parse: %v\n%s", err, FormatScript(events))
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed the events:\n was %+v\n now %+v", events, again)
		}
	})
}
