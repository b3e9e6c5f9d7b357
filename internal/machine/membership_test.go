package machine

import (
	"reflect"
	"testing"
)

// memb builds a 2-group × 3-proc tracker with the default thresholds
// (suspect after 2, presume dead after 4, quorum 1).
func memb(t *testing.T, quorum int) (*System, *Membership) {
	t.Helper()
	s := WanPair(3, nil)
	return s, NewMembership(s, quorum)
}

func TestMembershipDefaults(t *testing.T) {
	_, m := memb(t, 0)
	// The suspicion thresholds are constants: the engine and the
	// supervisor, their only callers, always used the same pair.
	if suspectAfter != 2 || deadAfter != 4 || m.Quorum != 1 {
		t.Fatalf("defaults wrong: suspect %d dead %d quorum %d", suspectAfter, deadAfter, m.Quorum)
	}
	s := WanPair(2, nil)
	m2 := NewMembership(s, 1)
	for p := 0; p < s.NumProcs(); p++ {
		if m2.State(p) != StateAlive || !m2.Admitted(p) {
			t.Fatalf("proc %d not alive/admitted at start", p)
		}
		if m2.ReadmitStep(p) != -1 {
			t.Fatalf("proc %d has a readmit step before any rejoin", p)
		}
	}
}

func TestSuspicionLadder(t *testing.T) {
	_, m := memb(t, 0)
	g := 0
	p := 0 // in group 0

	m.NoteProbeFailure(g)
	if m.State(p) != StateAlive {
		t.Fatalf("one failure should not suspect: %v", m.State(p))
	}
	m.NoteProbeFailure(g)
	if m.State(p) != StateSuspected {
		t.Fatalf("suspicion 2 should suspect: %v", m.State(p))
	}
	if !m.Admitted(p) {
		t.Fatal("suspected procs stay admitted")
	}
	if m.SuspectTransitions != 3 { // all three procs of group 0
		t.Fatalf("SuspectTransitions = %d, want 3", m.SuspectTransitions)
	}

	m.NoteProbeFailure(g)
	m.NoteProbeFailure(g)
	if m.State(p) != StateDead || m.Cause(p) != CausePresumed {
		t.Fatalf("suspicion 4 should presume dead: %v/%v", m.State(p), m.Cause(p))
	}
	if m.Admitted(p) {
		t.Fatal("presumed-dead procs are not admitted")
	}
	if m.SuspectedToDead != 3 {
		t.Fatalf("SuspectedToDead = %d, want 3", m.SuspectedToDead)
	}

	// Suspicion is capped, so recovery is bounded.
	m.NoteProbeFailure(g)
	if m.Suspicion(g) != deadAfter {
		t.Fatalf("suspicion %d not capped at %d", m.Suspicion(g), deadAfter)
	}

	// A successful probe starts the rejoin, not a silent flip to alive.
	m.NoteProbeSuccess(g)
	if m.State(p) != StateRejoining {
		t.Fatalf("presumed-dead should rejoin on probe success: %v", m.State(p))
	}
	if m.Admitted(p) {
		t.Fatal("rejoining procs are not admitted yet")
	}
	m.CompleteRejoin(p, 7)
	if m.State(p) != StateAlive || m.Cause(p) != CauseNone || m.ReadmitStep(p) != 7 {
		t.Fatalf("rejoin did not complete: %v/%v readmit %d", m.State(p), m.Cause(p), m.ReadmitStep(p))
	}
	if m.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", m.Rejoins)
	}
}

func TestSuspectedRecoversBelowThreshold(t *testing.T) {
	_, m := memb(t, 0)
	m.NoteProbeFailure(0)
	m.NoteProbeFailure(0)
	if m.State(0) != StateSuspected {
		t.Fatalf("setup: %v", m.State(0))
	}
	m.NoteProbeSuccess(0)
	if m.State(0) != StateAlive {
		t.Fatalf("suspected should clear to alive on probe success: %v", m.State(0))
	}
}

func TestBoundaryTickDecay(t *testing.T) {
	_, m := memb(t, 0)
	m.NoteProbeFailure(0)
	m.NoteProbeFailure(0)
	if m.State(0) != StateSuspected {
		t.Fatalf("setup: %v", m.State(0))
	}
	// Evidence was fresh this boundary: the first tick only clears the
	// flag, the next one decays.
	m.BoundaryTick()
	if m.Suspicion(0) != 2 {
		t.Fatalf("tick with fresh evidence decayed: %d", m.Suspicion(0))
	}
	m.BoundaryTick()
	if m.Suspicion(0) != 1 || m.State(0) != StateAlive {
		t.Fatalf("unprobed group should drain: suspicion %d state %v", m.Suspicion(0), m.State(0))
	}
	m.BoundaryTick()
	if m.Suspicion(0) != 0 {
		t.Fatalf("suspicion should reach 0, got %d", m.Suspicion(0))
	}
}

func TestCrashBeatsSuspicionAndKeepsCause(t *testing.T) {
	_, m := memb(t, 0)
	m.Crash(1)
	if m.State(1) != StateDead || m.Cause(1) != CauseCrash {
		t.Fatalf("crash not recorded: %v/%v", m.State(1), m.Cause(1))
	}
	// Probe success on the group must NOT revive a crash death — only
	// the engine (observing the fault schedule) may begin that rejoin.
	m.NoteProbeSuccess(0)
	if m.State(1) != StateDead {
		t.Fatalf("probe success revived a crash death: %v", m.State(1))
	}
	m.BeginRejoin(1)
	if m.State(1) != StateRejoining || m.Cause(1) != CauseCrash {
		t.Fatalf("rejoin should keep the crash cause: %v/%v", m.State(1), m.Cause(1))
	}
	// Thresholds must not touch an in-flight rejoin.
	m.NoteProbeFailure(0)
	m.NoteProbeFailure(0)
	if m.State(1) != StateRejoining {
		t.Fatalf("thresholds disturbed a rejoin in flight: %v", m.State(1))
	}
	if got := m.PendingRejoins(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PendingRejoins = %v", got)
	}
	// BeginRejoin is a no-op on non-dead procs.
	m.BeginRejoin(2)
	if m.State(2) == StateRejoining {
		t.Fatal("BeginRejoin revived a proc that never died")
	}
}

func TestQuorum(t *testing.T) {
	s, m := memb(t, 3)
	if m.BelowQuorum(0) {
		t.Fatal("full group below quorum")
	}
	m.Crash(0)
	if m.NumAdmitted(0) != 2 || !m.BelowQuorum(0) {
		t.Fatalf("admitted %d, below %v", m.NumAdmitted(0), m.BelowQuorum(0))
	}
	if m.BelowQuorum(1) {
		t.Fatal("untouched group below quorum")
	}
	_ = s

	// Nil tracker: everyone admitted, no group degraded.
	var nilM *Membership
	if !nilM.Admitted(0) || nilM.BelowQuorum(0) {
		t.Fatal("nil tracker must admit everyone")
	}
	if nilM.PendingRejoins() != nil || nilM.ReadmitStep(0) != -1 {
		t.Fatal("nil tracker accessors wrong")
	}
	nilM.NoteProbeFailure(0)
	nilM.NoteProbeSuccess(0)
	nilM.BoundaryTick()
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, m := memb(t, 2)
	m.Crash(0)
	m.BeginRejoin(0)
	m.NoteProbeFailure(1)
	m.NoteProbeFailure(1)
	m.CompleteRejoin(0, 3)
	m.CompleteRejoin(0, 3) // no-op: already alive

	snap := m.Snapshot()
	m2 := NewMembership(s, 2)
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := m2.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("state not restored:\n got: %+v\nwant: %+v", got, snap)
	}
	for p := 0; p < s.NumProcs(); p++ {
		if m2.State(p) != m.State(p) || m2.Cause(p) != m.Cause(p) || m2.ReadmitStep(p) != m.ReadmitStep(p) {
			t.Fatalf("proc %d state not restored", p)
		}
	}
	for g := 0; g < s.NumGroups(); g++ {
		if m2.Suspicion(g) != m.Suspicion(g) {
			t.Fatalf("group %d suspicion not restored", g)
		}
	}

	// The snapshot is a copy: later transitions must not leak into it.
	m.Crash(1)
	if snap.State[1] != StateAlive {
		t.Fatal("snapshot aliases the tracker's live state")
	}

	// Shape mismatches are corrupt checkpoints — including the zero
	// value, which is what a header without membership state decodes to.
	m3 := NewMembership(s, 2)
	if err := m3.Restore(MembershipState{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	short := m2.Snapshot()
	short.State = short.State[:1]
	if err := m3.Restore(short); err == nil {
		t.Fatal("short state vector accepted")
	}
	short = m2.Snapshot()
	short.Evidence = short.Evidence[:1]
	if err := m3.Restore(short); err == nil {
		t.Fatal("short evidence vector accepted")
	}
	if m3.State(0) != StateAlive {
		t.Fatalf("rejected restore disturbed state: %v", m3.State(0))
	}
}
