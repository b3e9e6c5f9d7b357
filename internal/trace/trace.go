// Package trace records structured events from a SAMR run: the
// integration order of level steps (the paper's Figures 2 and 5), the
// balancing points, regrids, and global redistributions (Figure 6).
// Traces are used by tests to assert the control flow matches the
// paper's flowchart and by exp.StructureReport to render the figures.
package trace

import (
	"fmt"
	"slices"
	"strings"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	Step Kind = iota
	LocalBalance
	GlobalCheck
	Redistribution
	Regrid
	// ProbeRetry records a global-phase probe that needed retries (or
	// exhausted them and fell back to the forecast).
	ProbeRetry
	// Quarantine records a level-0 boundary at which one or more
	// groups were unreachable and the run degraded to local-only
	// balancing.
	Quarantine
	// Recovery records a checkpoint restore after an injected
	// processor failure.
	Recovery
	// Fault records a raw injected fault observed by the engine
	// (processor failure, outage window edges).
	Fault
	// Checkpoint records a durable checkpoint generation written to
	// (or failed against) the on-disk store.
	Checkpoint
	// Membership records an elastic-membership transition: suspicion
	// raised or cleared, a processor presumed dead, a rejoin beginning
	// or completing, or a group dropping below quorum.
	Membership
)

func (k Kind) String() string {
	switch k {
	case Step:
		return "step"
	case LocalBalance:
		return "local-balance"
	case GlobalCheck:
		return "global-check"
	case Redistribution:
		return "redistribution"
	case Regrid:
		return "regrid"
	case ProbeRetry:
		return "probe-retry"
	case Quarantine:
		return "quarantine"
	case Recovery:
		return "recovery"
	case Fault:
		return "fault"
	case Checkpoint:
		return "checkpoint"
	case Membership:
		return "membership"
	default:
		return "unknown"
	}
}

// Event is one recorded occurrence.
type Event struct {
	Kind  Kind
	Level int
	// VTime is the virtual time at which the event completed.
	VTime float64
	// Note carries event-specific detail (migration counts, gain/cost).
	Note string
}

// Recorder accumulates events. A nil Recorder is valid and records
// nothing, so callers never need to branch.
type Recorder struct {
	Events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add appends an event (no-op on nil receiver).
func (r *Recorder) Add(k Kind, level int, vtime float64, note string) {
	if r == nil {
		return
	}
	r.Events = append(r.Events, Event{Kind: k, Level: level, VTime: vtime, Note: note})
}

// StepLevels returns the levels of the Step events in order — the
// integration sequence of Figure 2.
func (r *Recorder) StepLevels() []int {
	if r == nil {
		return nil
	}
	var out []int
	for _, e := range r.Events {
		if e.Kind == Step {
			out = append(out, e.Level)
		}
	}
	return out
}

// OfKind returns the events of the given kinds, in recorded order.
func (r *Recorder) OfKind(kinds ...Kind) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.Events {
		if slices.Contains(kinds, e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the trace, one event per line.
func (r *Recorder) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for i, e := range r.Events {
		fmt.Fprintf(&b, "%4d t=%.6f %-14s level=%d %s\n", i+1, e.VTime, e.Kind, e.Level, e.Note)
	}
	return b.String()
}

// OrderDiagram renders the step sequence like the paper's Figure 2:
// one line per level, with the ordinal position of every step of that
// level marked.
func (r *Recorder) OrderDiagram(maxLevel int) string {
	steps := r.StepLevels()
	var b strings.Builder
	for l := 0; l <= maxLevel; l++ {
		fmt.Fprintf(&b, "level %d:", l)
		for i, s := range steps {
			if s == l {
				fmt.Fprintf(&b, " %d", i+1)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
