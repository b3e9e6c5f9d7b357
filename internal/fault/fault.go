// Package fault implements deterministic, scripted fault injection
// for the simulated distributed system: link outage and degradation
// windows, probe-message loss, processor slowdowns, whole-processor
// failures, and group disconnects. The paper's premise is that
// wide-area networks are dynamic and unreliable; this package makes
// the simulation's networks and processors unreliable on a schedule,
// so the DLB scheme's degraded modes (probe retry, group quarantine,
// checkpoint recovery) can be exercised reproducibly.
//
// All decisions are pure functions of (seed, event script, query
// order): two runs with the same schedule and the same execution
// order observe byte-identical fault behaviour, which is what lets
// tests assert determinism of the whole fault-tolerant run.
package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Kind classifies a fault event.
type Kind int

// The fault kinds.
const (
	// LinkOutage makes the link between groups A and B unusable for
	// the window [Start, End): transfers are undeliverable and probes
	// fail.
	LinkOutage Kind = iota
	// LinkDegrade multiplies the link's effective β by Factor (>1 =
	// slower) during [Start, End) — a congested or flapping WAN.
	LinkDegrade
	// ProbeLoss drops each probe message on the link between A and B
	// with probability Prob during [Start, End), deterministically
	// derived from the schedule seed.
	ProbeLoss
	// ProcSlowdown multiplies processor Proc's speed by Factor
	// (0 < Factor ≤ 1) during [Start, End) — background load or
	// thermal throttling.
	ProcSlowdown
	// ProcFailure kills processor Proc permanently at time Start.
	ProcFailure
	// GroupDisconnect cuts group Group off from every other group for
	// [Start, End): all its inter-group links behave as down.
	GroupDisconnect
	// DiskTornWrite makes checkpoint writes inside [Start, End) land
	// torn: the generation file appears complete but holds only a
	// prefix (Factor is the surviving fraction in (0,1); 0 = 0.5).
	DiskTornWrite
	// DiskBitFlip flips one deterministically chosen bit of each
	// checkpoint write inside [Start, End).
	DiskBitFlip
	// DiskWriteError makes checkpoint writes inside [Start, End) fail
	// outright (a full disk or dying controller); nothing lands. Prob,
	// when non-zero, makes each write fail with that probability
	// (deterministically per write index) instead of always — a
	// flaky disk rather than a dead one. Pruned-generation deletions
	// inside the window always fail: a disk that rejects writes
	// rejects unlinks too.
	DiskWriteError
	// ProcRecovery revives processor Proc at time Start: any failure in
	// effect ends (a windowed one early, a permanent one at all). The
	// event is instantaneous — End must be 0.
	ProcRecovery
	// GroupReconnect restores group Group's connectivity at time Start,
	// cancelling any GroupDisconnect window in effect. Instantaneous —
	// End must be 0.
	GroupReconnect
	// WorkerKill instructs a chaos supervisor to SIGKILL the worker
	// process hosting group Group once that worker has reported
	// completing level-0 step Start (here a step index, not a virtual
	// time). The engine itself ignores the kind entirely — the kill is
	// an OS-level event the supervisor delivers, and the run's Result
	// must come out byte-identical anyway. Instantaneous — End must
	// be 0.
	WorkerKill
)

// kinds is the script vocabulary: each kind's name, and the keys a
// script line of that kind takes besides the time keys start=/at=/end=.
var kinds = [...]struct{ name, keys string }{
	LinkOutage:      {"link-outage", "between"},
	LinkDegrade:     {"link-degrade", "between factor"},
	ProbeLoss:       {"probe-loss", "between prob"},
	ProcSlowdown:    {"proc-slow", "proc factor"},
	ProcFailure:     {"proc-fail", "proc"},
	GroupDisconnect: {"group-disconnect", "group"},
	DiskTornWrite:   {"disk-torn-write", "factor"},
	DiskBitFlip:     {"disk-bit-flip", ""},
	DiskWriteError:  {"disk-write-error", "prob"},
	ProcRecovery:    {"proc-recover", "proc"},
	GroupReconnect:  {"group-reconnect", "group"},
	WorkerKill:      {"worker-kill", "group"},
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kinds) {
		return "unknown"
	}
	return kinds[k].name
}

// Event is one scripted fault. Times are virtual (vclock) seconds;
// windows are half-open [Start, End).
//
// ProcFailure's End is an implicit recovery time: End > Start bounds
// the outage to [Start, End) and the processor rejoins at End, while
// End == 0 or End == Start (the script parser's shorthand) means the
// failure is permanent. An End before Start is rejected. ProcRecovery
// and GroupReconnect are instantaneous (End must be 0).
type Event struct {
	Kind Kind
	// Start and End bound the event window.
	Start, End float64
	// A and B name the group pair for link events (order irrelevant).
	A, B int
	// Group names the target of a GroupDisconnect.
	Group int
	// Proc names the target of ProcSlowdown / ProcFailure.
	Proc int
	// Factor is the LinkDegrade β multiplier (≥1) or the ProcSlowdown
	// speed multiplier (0 < Factor ≤ 1).
	Factor float64
	// Prob is the ProbeLoss per-message drop probability in [0, 1],
	// or the DiskWriteError per-write failure probability (0 = every
	// write in the window fails, preserving older scripts).
	Prob float64
}

func (e Event) String() string {
	switch e.Kind {
	case LinkOutage:
		return fmt.Sprintf("link-outage between=%d,%d start=%g end=%g", e.A, e.B, e.Start, e.End)
	case LinkDegrade:
		return fmt.Sprintf("link-degrade between=%d,%d start=%g end=%g factor=%g", e.A, e.B, e.Start, e.End, e.Factor)
	case ProbeLoss:
		return fmt.Sprintf("probe-loss between=%d,%d start=%g end=%g prob=%g", e.A, e.B, e.Start, e.End, e.Prob)
	case ProcSlowdown:
		return fmt.Sprintf("proc-slow proc=%d start=%g end=%g factor=%g", e.Proc, e.Start, e.End, e.Factor)
	case ProcFailure:
		if e.End > e.Start {
			return fmt.Sprintf("proc-fail proc=%d at=%g end=%g", e.Proc, e.Start, e.End)
		}
		return fmt.Sprintf("proc-fail proc=%d at=%g", e.Proc, e.Start)
	case GroupDisconnect:
		return fmt.Sprintf("group-disconnect group=%d start=%g end=%g", e.Group, e.Start, e.End)
	case DiskTornWrite:
		return fmt.Sprintf("disk-torn-write start=%g end=%g factor=%g", e.Start, e.End, e.Factor)
	case DiskBitFlip:
		return fmt.Sprintf("disk-bit-flip start=%g end=%g", e.Start, e.End)
	case DiskWriteError:
		if e.Prob > 0 {
			return fmt.Sprintf("disk-write-error start=%g end=%g prob=%g", e.Start, e.End, e.Prob)
		}
		return fmt.Sprintf("disk-write-error start=%g end=%g", e.Start, e.End)
	case ProcRecovery:
		return fmt.Sprintf("proc-recover proc=%d at=%g", e.Proc, e.Start)
	case GroupReconnect:
		return fmt.Sprintf("group-reconnect group=%d at=%g", e.Group, e.Start)
	case WorkerKill:
		return fmt.Sprintf("worker-kill group=%d at=%g", e.Group, e.Start)
	default:
		return fmt.Sprintf("unknown(%d)", int(e.Kind))
	}
}

// validate rejects malformed events with a descriptive error.
func (e Event) validate() error {
	// NaN compares false with everything, so it would pass every range
	// check below and yield a window no time is ever inside.
	if math.IsNaN(e.Start) || math.IsNaN(e.End) || math.IsNaN(e.Factor) || math.IsNaN(e.Prob) {
		return fmt.Errorf("%s: NaN in start/end/factor/prob", e.Kind)
	}
	if e.Start < 0 {
		return fmt.Errorf("%s: negative start %g", e.Kind, e.Start)
	}
	switch e.Kind {
	case ProcFailure:
		// End > Start is a bounded outage (the proc rejoins at End);
		// End == 0 or End == Start means permanent. Anything else is
		// a recovery scheduled before the failure — reject it.
		if e.End != 0 && e.End < e.Start {
			return fmt.Errorf("proc-fail: end %g before start %g (use end=0 or end=start for a permanent failure)", e.End, e.Start)
		}
	case ProcRecovery, GroupReconnect, WorkerKill:
		if e.End != 0 {
			return fmt.Errorf("%s: instantaneous event must have end=0, got %g", e.Kind, e.End)
		}
	default:
		if e.End <= e.Start {
			return fmt.Errorf("%s: empty window [%g, %g)", e.Kind, e.Start, e.End)
		}
	}
	switch e.Kind {
	case LinkOutage, LinkDegrade, ProbeLoss:
		if e.A < 0 || e.B < 0 {
			return fmt.Errorf("%s: negative group in pair (%d, %d)", e.Kind, e.A, e.B)
		}
	case ProcSlowdown, ProcFailure, ProcRecovery:
		if e.Proc < 0 {
			return fmt.Errorf("%s: negative proc %d", e.Kind, e.Proc)
		}
	case GroupDisconnect, GroupReconnect, WorkerKill:
		if e.Group < 0 {
			return fmt.Errorf("%s: negative group %d", e.Kind, e.Group)
		}
	case DiskTornWrite, DiskBitFlip, DiskWriteError:
		// Disk events target the checkpoint store as a whole; only the
		// window (and, for torn writes, the surviving fraction) matter.
	default:
		return fmt.Errorf("unknown fault kind %d", int(e.Kind))
	}
	if e.Kind == LinkDegrade && e.Factor < 1 {
		return fmt.Errorf("link-degrade: factor %g must be ≥ 1", e.Factor)
	}
	if e.Kind == DiskTornWrite && (e.Factor < 0 || e.Factor >= 1) {
		return fmt.Errorf("disk-torn-write: surviving fraction %g must be in [0, 1)", e.Factor)
	}
	if e.Kind == ProcSlowdown && (e.Factor <= 0 || e.Factor > 1) {
		return fmt.Errorf("proc-slow: factor %g must be in (0, 1]", e.Factor)
	}
	if e.Kind == ProbeLoss && (e.Prob < 0 || e.Prob > 1) {
		return fmt.Errorf("probe-loss: prob %g must be in [0, 1]", e.Prob)
	}
	if e.Kind == DiskWriteError && (e.Prob < 0 || e.Prob > 1) {
		return fmt.Errorf("disk-write-error: prob %g must be in [0, 1]", e.Prob)
	}
	return nil
}

// in reports whether t falls inside the event's window.
func (e Event) in(t float64) bool { return t >= e.Start && t < e.End }

// matchesPair reports whether a link event targets the (a, b) pair.
func (e Event) matchesPair(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	ea, eb := e.A, e.B
	if ea > eb {
		ea, eb = eb, ea
	}
	return ea == a && eb == b
}

// Schedule is a validated, seeded fault script. Query methods are
// safe for concurrent use (the probe-drop sequence is guarded), but
// determinism across runs additionally requires a deterministic query
// order, which the single-threaded engine loop provides.
type Schedule struct {
	seed   int64
	events []Event

	mu       sync.Mutex
	probeSeq map[[2]int]uint64
}

// NewSchedule validates the events and builds a schedule. The seed
// drives the deterministic probe-loss decisions.
func NewSchedule(seed int64, events ...Event) (*Schedule, error) {
	for i, e := range events {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("fault.NewSchedule: event %d: %w", i, err)
		}
	}
	s := &Schedule{
		seed:     seed,
		events:   append([]Event(nil), events...),
		probeSeq: make(map[[2]int]uint64),
	}
	// Stable order by start time (then kind) so Events and the failure
	// scan are reproducible regardless of script order.
	sort.SliceStable(s.events, func(i, j int) bool {
		if s.events[i].Start != s.events[j].Start {
			return s.events[i].Start < s.events[j].Start
		}
		return s.events[i].Kind < s.events[j].Kind
	})
	return s, nil
}

// Seed returns the schedule's seed.
func (s *Schedule) Seed() int64 { return s.seed }

// Validate checks every event's processor and group indices against
// the target system's size. NewSchedule cannot do this (it sees no
// system), so callers bind the check at wiring time.
func (s *Schedule) Validate(numProcs, numGroups int) error {
	for i, e := range s.events {
		switch e.Kind {
		case LinkOutage, LinkDegrade, ProbeLoss:
			if e.A >= numGroups || e.B >= numGroups {
				return fmt.Errorf("fault event %d (%s): group pair (%d, %d) out of range for %d groups", i, e.Kind, e.A, e.B, numGroups)
			}
		case ProcSlowdown, ProcFailure, ProcRecovery:
			if e.Proc >= numProcs {
				return fmt.Errorf("fault event %d (%s): proc %d out of range for %d processors", i, e.Kind, e.Proc, numProcs)
			}
		case GroupDisconnect, GroupReconnect, WorkerKill:
			if e.Group >= numGroups {
				return fmt.Errorf("fault event %d (%s): group %d out of range for %d groups", i, e.Kind, e.Group, numGroups)
			}
		}
	}
	return nil
}

// KillPoint is one scripted worker kill: SIGKILL the worker hosting
// Group once it has reported completing level-0 step Step.
type KillPoint struct {
	Group int
	Step  int
}

// WorkerKills returns the scripted worker-kill points in schedule
// order — the chaos supervisor's kill list. The engine's own fault
// queries never see WorkerKill events.
func (s *Schedule) WorkerKills() []KillPoint {
	var out []KillPoint
	for _, e := range s.events {
		if e.Kind == WorkerKill {
			out = append(out, KillPoint{Group: e.Group, Step: int(e.Start)})
		}
	}
	return out
}

// NumEvents returns the event count.
func (s *Schedule) NumEvents() int {
	return len(s.events)
}

// LinkDown reports whether the link between groups a and b is
// unusable at time t: a LinkOutage window covers the pair, or either
// endpoint is group-disconnected.
func (s *Schedule) LinkDown(a, b int, t float64) bool {
	for _, e := range s.events {
		if e.Kind == LinkOutage && e.in(t) && e.matchesPair(a, b) {
			return true
		}
	}
	if a != b && (s.GroupDown(a, t) || s.GroupDown(b, t)) {
		return true
	}
	return false
}

// DegradeFactor returns the product of the β multipliers of every
// LinkDegrade window covering the pair at time t (1 when none).
func (s *Schedule) DegradeFactor(a, b int, t float64) float64 {
	f := 1.0
	for _, e := range s.events {
		if e.Kind == LinkDegrade && e.in(t) && e.matchesPair(a, b) {
			f *= e.Factor
		}
	}
	return f
}

// DropProbe decides whether the next probe message on the (a, b) link
// at time t is lost. Each call advances the pair's deterministic
// drop sequence, so the k-th probe message of a run always sees the
// same fate under the same seed and script.
func (s *Schedule) DropProbe(a, b int, t float64) bool {
	prob := 0.0
	for _, e := range s.events {
		if e.Kind == ProbeLoss && e.in(t) && e.matchesPair(a, b) && e.Prob > prob {
			prob = e.Prob
		}
	}
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	s.mu.Lock()
	n := s.probeSeq[key]
	s.probeSeq[key] = n + 1
	s.mu.Unlock()
	if prob <= 0 {
		return false
	}
	return hashUnit(uint64(s.seed), uint64(a)<<32|uint64(uint32(b)), n) < prob
}

// ProcFactor returns processor p's speed multiplier at time t: the
// product of every covering ProcSlowdown window, clamped below at
// 0.01 so modelled compute time stays finite. A dead processor
// (see ProcDead) returns 0.
func (s *Schedule) ProcFactor(p int, t float64) float64 {
	if s.ProcDead(p, t) {
		return 0
	}
	f := 1.0
	for _, e := range s.events {
		if e.Kind == ProcSlowdown && e.Proc == p && e.in(t) {
			f *= e.Factor
		}
	}
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// ProcDead reports whether processor p is failed at time t. The
// events for p are replayed in start order: a ProcFailure kills it
// (until End for a windowed failure, forever otherwise) and a
// ProcRecovery revives it. On a start-time tie the recovery wins.
func (s *Schedule) ProcDead(p int, t float64) bool {
	dead := false
	for _, e := range s.events {
		if e.Start > t || e.Proc != p {
			continue
		}
		switch e.Kind {
		case ProcFailure:
			if e.End > e.Start && t >= e.End {
				continue // windowed failure already over
			}
			dead = true
		case ProcRecovery:
			dead = false
		}
	}
	return dead
}

// GroupDown reports whether group g is disconnected at time t: a
// GroupDisconnect window covers t and no later (or same-start —
// reconnect wins ties) GroupReconnect has fired by t.
func (s *Schedule) GroupDown(g int, t float64) bool {
	down := false
	for _, e := range s.events {
		if e.Start > t || e.Group != g {
			continue
		}
		switch e.Kind {
		case GroupDisconnect:
			if t < e.End {
				down = true
			}
		case GroupReconnect:
			down = false
		}
	}
	return down
}

// FailuresIn returns the processors whose ProcFailure fires in the
// window (t0, t1], in event order (duplicates removed).
func (s *Schedule) FailuresIn(t0, t1 float64) []int {
	var out []int
	seen := map[int]bool{}
	for _, e := range s.events {
		if e.Kind == ProcFailure && e.Start > t0 && e.Start <= t1 && !seen[e.Proc] {
			seen[e.Proc] = true
			out = append(out, e.Proc)
		}
	}
	return out
}

// LinkFault binds the schedule to one fabric link (the group pair the
// link joins). It satisfies netsim's FaultModel interface without an
// import in either direction.
type LinkFault struct {
	s    *Schedule
	a, b int
}

// ForLink returns the fault view of the link between groups a and b
// (a == b for an intra-group link).
func (s *Schedule) ForLink(a, b int) *LinkFault {
	return &LinkFault{s: s, a: a, b: b}
}

// Down reports whether the link is unusable at time t.
func (lf *LinkFault) Down(t float64) bool { return lf.s.LinkDown(lf.a, lf.b, t) }

// Degrade returns the β multiplier at time t.
func (lf *LinkFault) Degrade(t float64) float64 { return lf.s.DegradeFactor(lf.a, lf.b, t) }

// DropProbe reports (and consumes) the fate of one probe message.
func (lf *LinkFault) DropProbe(t float64) bool { return lf.s.DropProbe(lf.a, lf.b, t) }

// diskKey salts the deterministic bit-flip position so it is
// independent of the probe-loss hash stream; diskWriteKey salts the
// per-write failure draw of a probabilistic DiskWriteError window.
const (
	diskKey      = 0xd15cfa17
	diskWriteKey = 0xd15cbad1
)

// DiskFault binds the schedule to a checkpoint store. It satisfies
// ckpt's DiskFault interface without an import in either direction.
// Decisions are pure functions of (seed, script, write index, time),
// so a resumed run that replays the same write sequence observes the
// same corruption.
type DiskFault struct{ s *Schedule }

// ForDisk returns the disk-fault view of the schedule.
func (s *Schedule) ForDisk() *DiskFault { return &DiskFault{s: s} }

// WriteError reports whether the n-th checkpoint write at time t
// fails outright. An event with Prob == 0 fails every write in its
// window (the historical behaviour); Prob in (0, 1] fails each write
// with that probability, drawn deterministically from the write
// index so a resumed run replays the same fates.
func (d *DiskFault) WriteError(n int, t float64) bool {
	prob := 0.0
	for _, e := range d.s.events {
		if e.Kind != DiskWriteError || !e.in(t) {
			continue
		}
		p := e.Prob
		if p == 0 {
			p = 1
		}
		if p > prob {
			prob = p
		}
	}
	if prob == 0 {
		return false
	}
	return hashUnit(uint64(d.s.seed), diskWriteKey, uint64(n)) < prob
}

// RemoveError reports whether deleting a pruned checkpoint file fails
// at time t: any DiskWriteError window covers removals too — a disk
// that rejects writes rejects unlinks — regardless of the window's
// per-write probability. n keys nothing today but mirrors the other
// disk-fault decisions' shape.
func (d *DiskFault) RemoveError(n int, t float64) bool {
	for _, e := range d.s.events {
		if e.Kind == DiskWriteError && e.in(t) {
			return true
		}
	}
	return false
}

// TornWrite reports whether the n-th checkpoint write at time t lands
// torn, and the fraction of bytes that survive.
func (d *DiskFault) TornWrite(n int, t float64) (bool, float64) {
	for _, e := range d.s.events {
		if e.Kind == DiskTornWrite && e.in(t) {
			frac := e.Factor
			if frac == 0 {
				frac = 0.5
			}
			return true, frac
		}
	}
	return false, 0
}

// FlipBit reports whether one bit of the n-th checkpoint write at
// time t is flipped, and a unit value selecting which bit.
func (d *DiskFault) FlipBit(n int, t float64) (bool, float64) {
	for _, e := range d.s.events {
		if e.Kind == DiskBitFlip && e.in(t) {
			return true, hashUnit(uint64(d.s.seed), diskKey, uint64(n))
		}
	}
	return false, 0
}

// ProbeSeqEntry records one link pair's position in the deterministic
// probe-drop sequence.
type ProbeSeqEntry struct {
	A, B int
	N    uint64
}

// ProbeSeqSnapshot returns the per-pair probe-drop sequence positions
// in (A, B) order, for checkpointing: restoring them into an
// identically scripted schedule makes a resumed run observe the same
// probe fates the uninterrupted run would have.
func (s *Schedule) ProbeSeqSnapshot() []ProbeSeqEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProbeSeqEntry, 0, len(s.probeSeq))
	for k, n := range s.probeSeq {
		out = append(out, ProbeSeqEntry{A: k[0], B: k[1], N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// RestoreProbeSeq resets the probe-drop sequence positions from a
// snapshot (any previous positions are discarded).
func (s *Schedule) RestoreProbeSeq(entries []ProbeSeqEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probeSeq = make(map[[2]int]uint64, len(entries))
	for _, e := range entries {
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		s.probeSeq[[2]int{a, b}] = e.N
	}
}

// hashUnit maps (seed, key, n) to a uniform float64 in [0, 1) with a
// splitmix64-style mix — deterministic and platform-independent.
func hashUnit(seed, key, n uint64) float64 {
	x := seed ^ key*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
