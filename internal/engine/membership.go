package engine

import (
	"fmt"

	"samrdlb/internal/trace"
)

// noteMembership advances the elastic-membership state machine at a
// level-0 boundary, before the global decision reads the world:
// suspicion decays for groups with no fresh probe evidence, pending
// rejoins complete — the processor is re-admitted at its current
// EffectivePerf and a forced catch-up gain/cost evaluation is armed so
// the decision that follows redistributes work onto it (charged to δ
// exactly like quarantine catch-up) — and below-quorum groups are
// counted and traced. Everything here is a pure function of the
// deterministic probe/fault history, keeping replay byte-identical.
// Like completePendingRejoins it is reached only under fault injection,
// which is exactly when the tracker exists.
func (r *Runner) noteMembership() {
	now := r.clock.Now()
	preDead := r.memb.SuspectedToDead
	r.memb.BoundaryTick()
	if pend := r.memb.PendingRejoins(); len(pend) > 0 {
		for _, p := range pend {
			r.memb.CompleteRejoin(p, r.curStep)
			r.opt.Trace.Add(trace.Membership, 0, now,
				fmt.Sprintf("processor %d re-admitted at perf %.3g", p, r.sys.EffectivePerf(p)))
		}
		r.memb.RejoinCatchups++
		r.ctx.ForceEval = true
		r.opt.Trace.Add(trace.Membership, 0, now,
			fmt.Sprintf("rejoin complete for %v; catch-up evaluation armed", pend))
	}
	if r.memb.SuspectedToDead > preDead {
		r.opt.Trace.Add(trace.Membership, 0, now, "suspicion threshold crossed; processors presumed dead")
	}
	var below []int
	for g := 0; g < r.sys.NumGroups(); g++ {
		if r.memb.BelowQuorum(g) {
			below = append(below, g)
		}
	}
	if len(below) > 0 {
		r.memb.QuorumDegradedSteps++
		r.opt.Trace.Add(trace.Membership, 0, now,
			fmt.Sprintf("groups %v below quorum %d; local-only balancing", below, r.memb.Quorum))
	}
}

// noteProbeEvidence feeds the global decision's probe outcome into
// membership suspicion: a probe that exhausted its retries raises
// suspicion against both endpoint groups, a successful one clears it.
// Scripted whole-group disconnects are deliberately not fed in — they
// are ground truth the quarantine path already handles; suspicion
// models only what the run can actually observe.
func (r *Runner) noteProbeEvidence(probedA, probedB int, failed bool) {
	if r.memb == nil {
		return
	}
	now := r.clock.Now()
	if failed {
		r.memb.NoteProbeFailure(probedA)
		r.memb.NoteProbeFailure(probedB)
		r.opt.Trace.Add(trace.Membership, 0, now,
			fmt.Sprintf("probe failed between groups %d,%d; suspicion %d,%d",
				probedA, probedB, r.memb.Suspicion(probedA), r.memb.Suspicion(probedB)))
		return
	}
	hadSuspicion := r.memb.Suspicion(probedA) > 0 || r.memb.Suspicion(probedB) > 0
	r.memb.NoteProbeSuccess(probedA)
	r.memb.NoteProbeSuccess(probedB)
	if hadSuspicion {
		r.opt.Trace.Add(trace.Membership, 0, now,
			fmt.Sprintf("probe succeeded between groups %d,%d; suspicion cleared", probedA, probedB))
	}
}

// ownsCells reports whether the ledger still attributes any cells to
// processor p. After a total-capacity failure the recovery repartition
// has no alive target, so grids keep their dead owners; the first
// returning processor that still owns cells marks that situation.
func (r *Runner) ownsCells(p int) bool {
	for l := 0; l <= r.h.MaxLevel; l++ {
		if r.ledger.ProcCells(l, p) > 0 {
			return true
		}
	}
	return false
}

// completePendingRejoins re-admits every rejoining processor without
// arming a catch-up evaluation — used after a checkpoint restore,
// where the recovery repartition over the alive processors already
// placed work on them (the repartition is the re-admission).
func (r *Runner) completePendingRejoins(step int) {
	now := r.clock.Now()
	for _, p := range r.memb.PendingRejoins() {
		r.memb.CompleteRejoin(p, step)
		r.opt.Trace.Add(trace.Membership, 0, now,
			fmt.Sprintf("processor %d re-admitted by recovery repartition", p))
	}
}
