package machine

import "fmt"

// ProcState is a processor's position in the elastic-membership state
// machine: alive → suspected → dead → rejoining → alive. Suspicion is
// evidence-driven (probe retry exhaustion against the proc's group);
// death is either scripted truth (a ProcFailure observed by the
// engine, CauseCrash) or accumulated suspicion (CausePresumed). A dead
// processor that shows signs of life — a scripted recovery, the end of
// a bounded failure window, or suspicion draining away — moves to
// rejoining, and stays there (owning no new work) until the engine
// re-admits it at a global-balance boundary.
type ProcState int

// Membership states.
const (
	StateAlive ProcState = iota
	StateSuspected
	StateDead
	StateRejoining
)

func (s ProcState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspected:
		return "suspected"
	case StateDead:
		return "dead"
	case StateRejoining:
		return "rejoining"
	default:
		return "unknown"
	}
}

// DeathCause distinguishes how a processor reached StateDead: a crash
// observed from the fault schedule loses the proc's grids (checkpoint
// recovery reassigns them), while a presumed death from probe
// suspicion keeps them — the proc may well still be computing behind
// an unreachable network, exactly like a quarantined group.
type DeathCause int

// Death causes.
const (
	CauseNone DeathCause = iota
	CauseCrash
	CausePresumed
)

func (c DeathCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCrash:
		return "crash"
	case CausePresumed:
		return "presumed"
	default:
		return "unknown"
	}
}

// Membership tracks the elastic-membership state machine over a
// System's processors. Suspicion accumulates per group (probes travel
// group-to-group, so the evidence cannot single out a processor) and
// decays by one per boundary without fresh evidence, so a group that
// stops being probed — e.g. because suspicion itself degraded the run
// to local-only balancing — recovers instead of deadlocking.
//
// All transitions are pure functions of the sequence of Note*/Tick
// calls, keeping replay byte-identical.
type Membership struct {
	sys     *System
	state   []ProcState
	cause   []DeathCause
	readmit []int // step at which the proc was last re-admitted (-1 = never)

	suspicion []int  // per group: consecutive-evidence suspicion level
	evidence  []bool // per group: fresh probe evidence since the last tick

	// Quorum is the minimum admitted processors a group needs to take
	// part in global balancing; below it the group degrades to
	// local-only decisions via the quarantine path.
	Quorum int

	// Counters since construction, exposed through engine.Result.
	SuspectTransitions  int // alive → suspected
	SuspectedToDead     int // suspected → presumed dead
	Rejoins             int // completed re-admissions
	RejoinCatchups      int // forced catch-up evaluations armed by rejoins
	QuorumDegradedSteps int // boundaries at which some group was below quorum
}

// The suspicion thresholds: a group whose suspicion reaches
// suspectAfter has its alive procs marked suspected; at deadAfter the
// suspected procs are presumed dead.
const (
	suspectAfter = 2
	deadAfter    = 4
)

// NewMembership builds a tracker with every processor alive. A quorum
// ≤ 0 means 1.
func NewMembership(sys *System, quorum int) *Membership {
	if quorum <= 0 {
		quorum = 1
	}
	m := &Membership{
		sys:       sys,
		state:     make([]ProcState, sys.NumProcs()),
		cause:     make([]DeathCause, sys.NumProcs()),
		readmit:   make([]int, sys.NumProcs()),
		suspicion: make([]int, sys.NumGroups()),
		evidence:  make([]bool, sys.NumGroups()),
		Quorum:    quorum,
	}
	for p := range m.readmit {
		m.readmit[p] = -1
	}
	return m
}

// State returns processor p's membership state.
func (m *Membership) State(p int) ProcState { return m.state[p] }

// Cause returns how processor p reached StateDead (or the cause of the
// rejoin in flight); CauseNone for procs that never died.
func (m *Membership) Cause(p int) DeathCause { return m.cause[p] }

// Admitted reports whether processor p may own work: alive and
// suspected procs are admitted, dead and rejoining ones are not. A nil
// Membership admits everyone (fault-free runs never build a tracker).
func (m *Membership) Admitted(p int) bool {
	if m == nil {
		return true
	}
	return m.state[p] == StateAlive || m.state[p] == StateSuspected
}

// NumAdmitted returns how many of group g's processors are admitted.
func (m *Membership) NumAdmitted(g int) int {
	n := 0
	for _, p := range m.sys.ProcsInGroup(g) {
		if m.Admitted(p) {
			n++
		}
	}
	return n
}

// BelowQuorum reports whether group g has fewer admitted processors
// than the quorum. Nil-safe: no tracker, no degradation.
func (m *Membership) BelowQuorum(g int) bool {
	if m == nil {
		return false
	}
	return m.NumAdmitted(g) < m.Quorum
}

// Suspicion returns group g's current suspicion level.
func (m *Membership) Suspicion(g int) int { return m.suspicion[g] }

// ReadmitStep returns the level-0 step at which processor p last
// completed a rejoin, or -1 if it never rejoined.
func (m *Membership) ReadmitStep(p int) int {
	if m == nil {
		return -1
	}
	return m.readmit[p]
}

// Crash records a scripted processor failure observed by the engine:
// p is dead with its grids lost, whatever suspicion said.
func (m *Membership) Crash(p int) {
	m.state[p] = StateDead
	m.cause[p] = CauseCrash
}

// BeginRejoin moves a dead processor to StateRejoining: it is healthy
// again (scripted recovery or the end of a bounded failure window) but
// owns no new work until the engine re-admits it. The death cause is
// kept so the oracle knows whether the proc must be empty. No-op for
// procs that are not dead.
func (m *Membership) BeginRejoin(p int) {
	if m.state[p] != StateDead {
		return
	}
	m.state[p] = StateRejoining
}

// PendingRejoins returns the processors currently in StateRejoining,
// ascending. Nil when none (and on a nil tracker).
func (m *Membership) PendingRejoins() []int {
	if m == nil {
		return nil
	}
	var out []int
	for p, s := range m.state {
		if s == StateRejoining {
			out = append(out, p)
		}
	}
	return out
}

// CompleteRejoin re-admits a rejoining processor at level-0 step: it
// is alive again, its death cause is cleared, and the step is recorded
// so the oracle can grant a balance-tolerance grace window.
func (m *Membership) CompleteRejoin(p, step int) {
	if m.state[p] != StateRejoining {
		return
	}
	m.state[p] = StateAlive
	m.cause[p] = CauseNone
	m.readmit[p] = step
	m.Rejoins++
}

// NoteProbeFailure records that a global-phase probe touching group g
// exhausted its retries: suspicion rises and thresholds re-apply.
func (m *Membership) NoteProbeFailure(g int) {
	if m == nil {
		return
	}
	m.suspicion[g]++
	if m.suspicion[g] > deadAfter {
		m.suspicion[g] = deadAfter
	}
	m.evidence[g] = true
	m.applyThresholds(g)
}

// NoteProbeSuccess records a successful probe touching group g: the
// group is reachable, so suspicion resets and thresholds re-apply
// (suspected procs recover, presumed-dead ones start rejoining).
func (m *Membership) NoteProbeSuccess(g int) {
	if m == nil {
		return
	}
	m.suspicion[g] = 0
	m.evidence[g] = true
	m.applyThresholds(g)
}

// BoundaryTick advances the per-boundary suspicion decay: groups with
// no fresh probe evidence since the last tick lose one suspicion
// level, so a group nobody probes anymore (e.g. because its own
// suspicion degraded the run) drains back towards admission instead of
// deadlocking. Evidence flags reset for the next boundary.
func (m *Membership) BoundaryTick() {
	if m == nil {
		return
	}
	for g := range m.suspicion {
		if !m.evidence[g] && m.suspicion[g] > 0 {
			m.suspicion[g]--
			m.applyThresholds(g)
		}
		m.evidence[g] = false
	}
}

// applyThresholds re-derives the suspicion-driven states of group g's
// processors from its current suspicion level. Crash deaths and
// in-flight rejoins are evidence the thresholds must not override:
// only the alive ↔ suspected ↔ presumed-dead ladder is touched, and a
// presumed-dead proc whose suspicion drops below deadAfter starts
// rejoining (it needs the engine's re-admission, not a silent flip).
func (m *Membership) applyThresholds(g int) {
	s := m.suspicion[g]
	for _, p := range m.sys.ProcsInGroup(g) {
		switch {
		case s >= deadAfter:
			if m.state[p] == StateSuspected {
				m.state[p] = StateDead
				m.cause[p] = CausePresumed
				m.SuspectedToDead++
			}
		case s >= suspectAfter:
			if m.state[p] == StateAlive {
				m.state[p] = StateSuspected
				m.SuspectTransitions++
			}
			if m.state[p] == StateDead && m.cause[p] == CausePresumed {
				m.state[p] = StateRejoining
			}
		default:
			if m.state[p] == StateSuspected {
				m.state[p] = StateAlive
			}
			if m.state[p] == StateDead && m.cause[p] == CausePresumed {
				m.state[p] = StateRejoining
			}
		}
	}
}

// MembershipState is the tracker's checkpointable state: the
// per-processor and per-group vectors of the state machine. The
// cumulative counters are not part of it — the engine carries them in
// its run counters.
type MembershipState struct {
	State   []ProcState  // per processor
	Cause   []DeathCause // per processor
	Readmit []int        // per processor

	Suspicion []int  // per group
	Evidence  []bool // per group
}

// Snapshot returns a copy of the tracker's state for a checkpoint.
func (m *Membership) Snapshot() MembershipState {
	return MembershipState{
		State:     append([]ProcState(nil), m.state...),
		Cause:     append([]DeathCause(nil), m.cause...),
		Readmit:   append([]int(nil), m.readmit...),
		Suspicion: append([]int(nil), m.suspicion...),
		Evidence:  append([]bool(nil), m.evidence...),
	}
}

// Restore overwrites the tracker's state from a checkpoint snapshot.
// A snapshot taken on a different system shape is a corrupt
// checkpoint.
func (m *Membership) Restore(s MembershipState) error {
	np, ng := len(m.state), len(m.suspicion)
	if len(s.State) != np || len(s.Cause) != np || len(s.Readmit) != np {
		return fmt.Errorf("membership: snapshot covers %d/%d/%d processors, system has %d",
			len(s.State), len(s.Cause), len(s.Readmit), np)
	}
	if len(s.Suspicion) != ng || len(s.Evidence) != ng {
		return fmt.Errorf("membership: snapshot covers %d/%d groups, system has %d",
			len(s.Suspicion), len(s.Evidence), ng)
	}
	copy(m.state, s.State)
	copy(m.cause, s.Cause)
	copy(m.readmit, s.Readmit)
	copy(m.suspicion, s.Suspicion)
	copy(m.evidence, s.Evidence)
	return nil
}
