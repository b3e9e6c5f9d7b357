package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"samrdlb/internal/amr"
	"samrdlb/internal/ckpt"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

// Resume reconstructs a Runner from the durable checkpoint store in
// opt.Checkpoints and continues the interrupted run: the returned
// runner's Run() executes the remaining level-0 steps and yields a
// Result identical to the uninterrupted run's. Generations that fail
// validation — torn, bit-flipped, or semantically rejected by amr.Load
// — are skipped newest-first; the report says what was skipped and
// which generation won. sys and driver must be fresh instances
// configured exactly like the original run's: a generation carries the
// identity of the run that wrote it (Options.Spec), and one written by
// a different run is skipped like a damaged one.
//
// Known resume limitations, accepted by design: the NWS forecast
// history restarts empty (runs whose decisions consult the forecast
// may diverge), and a processor failure after the resume point rewinds
// to the resume point rather than the original run's in-memory
// checkpoint.
func Resume(sys *machine.System, driver workload.Driver, opt Options) (*Runner, *ckpt.RestoreReport, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, nil, fmt.Errorf("engine.Resume: %w", err)
	}
	if opt.Checkpoints == nil {
		return nil, nil, fmt.Errorf("engine.Resume: Options.Checkpoints is required")
	}
	store, err := ckpt.OpenDir(opt.Checkpoints, opt.CheckpointKeep)
	if err != nil {
		return nil, nil, fmt.Errorf("engine.Resume: %w", err)
	}
	var h *amr.Hierarchy
	meta, _, report, err := store.Restore(func(m *ckpt.Meta, payload []byte) error {
		if e := validateMeta(m, sys, &opt); e != nil {
			return e
		}
		hh, e := amr.Load(bytes.NewReader(payload))
		if e != nil {
			return e
		}
		if dom := geom.UnitCube(driver.DomainN()); hh.Domain != dom {
			return fmt.Errorf("checkpoint domain %v does not match driver %q (%v)", hh.Domain, driver.Name(), dom)
		}
		if hh.RefFactor != driver.RefFactor() {
			return fmt.Errorf("checkpoint refinement factor %d, driver wants %d", hh.RefFactor, driver.RefFactor())
		}
		if hh.WithData != opt.WithData {
			return fmt.Errorf("checkpoint WithData=%v, options want %v", hh.WithData, opt.WithData)
		}
		h = hh
		return nil
	})
	if err != nil {
		return nil, report, fmt.Errorf("engine.Resume: %w", err)
	}
	// The constructor opens its own Store handle on the same directory
	// (continuing the generation numbering the restore saw) and attaches
	// the disk-fault injector if the run is fault-scripted.
	r, err := newRunner(sys, driver, opt, h, meta.SimTime)
	if err != nil {
		return nil, report, fmt.Errorf("engine.Resume: %w", err)
	}
	if err := r.restoreFromMeta(meta); err != nil {
		r.Close()
		return nil, report, fmt.Errorf("engine.Resume: %w", err)
	}
	// The restored state is a phase boundary like any other: let the
	// invariant oracle inspect it before the run continues.
	r.curStep = meta.Step
	r.fireInvariant(PhaseRestore, 0, nil, nil, false)
	return r, report, nil
}

// validateMeta rejects checkpoints that cannot possibly belong to this
// system and fault configuration — errors, never panics, so Restore
// falls through to older generations (a mismatch rejects them all and
// surfaces as a joined error).
func validateMeta(m *ckpt.Meta, sys *machine.System, opt *Options) error {
	have, want := append(strings.Fields(m.Spec), "no further key"), append(strings.Fields(opt.Spec), "no further key")
	if len(have) > 1 && len(want) > 1 && !slices.Equal(have, want) {
		// Both identities list their keys in one order, so the first
		// tokens that differ name the key.
		i := 0
		for have[i] == want[i] {
			i++
		}
		return fmt.Errorf("written by a different run: checkpoint has %s, this run %s", have[i], want[i])
	}
	if len(m.Clock.Busy) != sys.NumProcs() {
		return fmt.Errorf("checkpoint covers %d processors, system has %d", len(m.Clock.Busy), sys.NumProcs())
	}
	if m.HasFaults != (opt.Faults != nil) {
		return fmt.Errorf("checkpoint fault injection %v, options say %v", m.HasFaults, opt.Faults != nil)
	}
	if m.HasFaults && m.FaultSeed != opt.Faults.Seed() {
		return fmt.Errorf("checkpoint fault seed %d, schedule seed %d", m.FaultSeed, opt.Faults.Seed())
	}
	if m.Step < 0 {
		return fmt.Errorf("checkpoint covers step %d", m.Step)
	}
	return nil
}

// restoreFromMeta rehydrates everything beyond the hierarchy: the
// virtual clock, the recorder's persistent T(t) and δ, the DLB
// context, all run counters, and the fault-layer bookkeeping. After
// it, Run() continues at meta.Step+1 exactly as the original process
// would have.
func (r *Runner) restoreFromMeta(m *ckpt.Meta) error {
	if err := r.clock.SetState(m.Clock); err != nil {
		return err
	}
	r.startStep = m.Step + 1
	r.resumed = true
	r.intervalStart = m.IntervalStart
	r.rec.SetIntervalTime(m.IntervalTime)
	r.rec.SetDelta(m.Delta)
	r.ctx.ForceEval = m.ForceEval
	r.h.SetNextID(amr.GridID(m.NextGridID))
	r.cnt = m.Counters
	// The resume-time full ledger build replaces the original run's
	// initial build in the campaign totals: reconcile the bases so the
	// reported events/rebuilds match the uninterrupted run's.
	r.cnt.LedgerEvents -= r.ledger.EventCount()
	r.cnt.LedgerRebuilds -= r.ledger.Rebuilds()
	r.ckptAttempts = m.WriteAttempts
	if m.HasFaults {
		r.lastFailCheck = m.LastFailCheck
		r.wasQuar = m.WasQuarantined
		if err := r.memb.Restore(m.Memb); err != nil {
			return err
		}
		for p := 0; p < r.sys.NumProcs(); p++ {
			if r.failed(p) {
				r.sys.SetHealth(p, 0)
			}
		}
		r.opt.Faults.RestoreProbeSeq(m.ProbeSeq)
	}
	// Particle populations live in the driver and advance once per
	// level-0 step; replay them to the checkpointed step so positions
	// (pure integration, no randomness) match the original run's.
	if ps := r.driver.Particles(); ps != nil {
		for i := 0; i <= m.Step; i++ {
			ps.Step(r.dt0, r.opt.Pool)
		}
	}
	return nil
}
