package engine

import (
	"samrdlb/internal/dlb"
	"samrdlb/internal/machine"
)

// Phase identifies the hook point at which an Options.Invariants
// callback fires. Each phase corresponds to one structural transition
// of the run loop after which the paper's invariants must hold.
type Phase int

const (
	// PhaseRegrid fires after the hierarchy has been rebuilt from the
	// driver's flags (children placed via the scheme).
	PhaseRegrid Phase = iota
	// PhaseLocalBalance fires after the scheme's local phase for one
	// finer level, whether or not it migrated anything.
	PhaseLocalBalance
	// PhaseGlobalBalance fires after the global gain/cost decision and
	// any redistribution, before the measurement interval resets — so
	// the recorder still holds the state the decision read.
	PhaseGlobalBalance
	// PhaseCheckpoint fires after a recovery checkpoint was recorded
	// (in-memory) or written (durable store).
	PhaseCheckpoint
	// PhaseRestore fires after state was restored: from the in-memory
	// or durable checkpoint chain on processor failure, or from the
	// durable store by engine.Resume.
	PhaseRestore
)

func (p Phase) String() string {
	switch p {
	case PhaseRegrid:
		return "regrid"
	case PhaseLocalBalance:
		return "local-balance"
	case PhaseGlobalBalance:
		return "global-balance"
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseRestore:
		return "restore"
	default:
		return "unknown"
	}
}

// PhaseInfo is the snapshot handed to Options.Invariants at each hook
// point. The Runner is the live runner — callbacks may read its
// hierarchy, clock, ledger and context, but must not mutate them.
type PhaseInfo struct {
	Phase Phase
	// Step is the level-0 step being executed (the step a Restore
	// rewound to, for PhaseRestore).
	Step int
	// Level is the balanced level (PhaseLocalBalance only; 0 otherwise).
	Level int
	// Runner is the live runner.
	Runner *Runner
	// Decision is the global phase's outcome (PhaseGlobalBalance only).
	Decision *dlb.GlobalDecision
	// Migrations are the local phase's moves (PhaseLocalBalance only;
	// may be empty).
	Migrations []dlb.Migration
	// Forced reports that the global evaluation was a quarantine
	// catch-up (PhaseGlobalBalance only).
	Forced bool
}

// System exposes the machine the run executes on.
func (r *Runner) System() *machine.System { return r.sys }

// Context exposes the DLB context (for invariant checkers).
func (r *Runner) Context() *dlb.Context { return r.ctx }

// Membership exposes the elastic-membership tracker (nil on runs
// without fault injection).
func (r *Runner) Membership() *machine.Membership { return r.memb }

// fireInvariant invokes the Options.Invariants hook, if any.
func (r *Runner) fireInvariant(ph Phase, level int, d *dlb.GlobalDecision, migs []dlb.Migration, forced bool) {
	if r.opt.Invariants == nil {
		return
	}
	r.opt.Invariants(&PhaseInfo{
		Phase: ph, Step: r.curStep, Level: level,
		Runner: r, Decision: d, Migrations: migs, Forced: forced,
	})
}
