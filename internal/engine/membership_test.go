package engine

import (
	"reflect"
	"strings"
	"testing"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/trace"
	"samrdlb/internal/workload"
)

// rejoinSchedule is the elastic-membership acceptance schedule: every
// group loses one processor to a bounded outage and regains it with
// several level-0 steps left to absorb the catch-up.
func rejoinSchedule(t *testing.T, bt []float64) *fault.Schedule {
	t.Helper()
	sched, err := fault.NewSchedule(7,
		// Group 0 loses proc 1 across boundaries 1-2.
		fault.Event{Kind: fault.ProcFailure, Proc: 1,
			Start: (bt[0] + bt[1]) / 2, End: (bt[2] + bt[3]) / 2},
		// Group 1 loses proc 5 across boundaries 2-3.
		fault.Event{Kind: fault.ProcFailure, Proc: 5,
			Start: (bt[1] + bt[2]) / 2, End: (bt[3] + bt[4]) / 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// ownedCells sums processor p's ledger load across all levels.
func ownedCells(r *Runner, p int) float64 {
	total := 0.0
	for l := 0; l <= r.Hierarchy().MaxLevel; l++ {
		total += r.Ledger().ProcCells(l, p)
	}
	return total
}

// TestElasticRejoinAcceptance is the issue's acceptance scenario:
// every group loses and regains a processor, the run completes with
// both processors re-admitted and owning work at the final step, and
// the whole thing replays byte-identically.
func TestElasticRejoinAcceptance(t *testing.T) {
	bt := boundaryClocks(t, 8)
	run := func() (*Runner, []trace.Event, metrics.Result) {
		tr := trace.New()
		r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 8, MaxLevel: 1, Faults: rejoinSchedule(t, bt), Trace: tr,
		})
		res := r.Run()
		return r, tr.Events, *res
	}
	r, ev, res := run()

	m := r.Membership()
	if m == nil {
		t.Fatal("fault run must build a membership tracker")
	}
	if res.Rejoins != 2 {
		t.Fatalf("both processors must rejoin, got %d", res.Rejoins)
	}
	if res.RejoinCatchups < 1 {
		t.Fatalf("rejoins must arm at least one catch-up evaluation, got %d", res.RejoinCatchups)
	}
	if res.CatchupEvals < res.RejoinCatchups {
		t.Fatalf("armed catch-ups must run: evals %d < armed %d", res.CatchupEvals, res.RejoinCatchups)
	}
	for _, p := range []int{1, 5} {
		if st := m.State(p); st != machine.StateAlive {
			t.Errorf("proc %d should end the run alive, got %v", p, st)
		}
		if m.ReadmitStep(p) < 0 {
			t.Errorf("proc %d has no re-admission step", p)
		}
		if got := ownedCells(r, p); got <= 0 {
			t.Errorf("rejoined proc %d owns no work at the final step", p)
		}
	}
	if res.FailedProcs != 0 {
		t.Errorf("no processor is lost for good, got FailedProcs=%d", res.FailedProcs)
	}
	var sawRejoin, sawReadmit bool
	for _, e := range ev {
		if e.Kind != trace.Membership {
			continue
		}
		if strings.Contains(e.Note, "rejoin pending") {
			sawRejoin = true
		}
		if strings.Contains(e.Note, "re-admitted") {
			sawReadmit = true
		}
	}
	if !sawRejoin || !sawReadmit {
		t.Errorf("trace must carry the rejoin lifecycle (pending=%v re-admitted=%v)", sawRejoin, sawReadmit)
	}
	if res.RecoveryReport() == "" {
		t.Error("a run with rejoins must produce a recovery report")
	}

	// Byte-identical replay.
	r2, ev2, res2 := run()
	_ = r2
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("results differ between identical runs:\n%+v\n%+v", res, res2)
	}
	if !reflect.DeepEqual(ev, ev2) {
		t.Errorf("traces differ between identical runs (%d vs %d events)", len(ev), len(ev2))
	}
}

// quarWindows builds a schedule of group-disconnect windows; each
// entry is (group, start, end) in boundary-clock coordinates.
func quarWindows(t *testing.T, windows [][3]float64) *fault.Schedule {
	t.Helper()
	var evs []fault.Event
	for _, w := range windows {
		evs = append(evs, fault.Event{Kind: fault.GroupDisconnect,
			Group: int(w[0]), Start: w[1], End: w[2]})
	}
	sched, err := fault.NewSchedule(7, evs...)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// countLifts returns the number of quarantine-lift trace events (each
// arms exactly one forced catch-up evaluation).
func countLifts(ev []trace.Event) int {
	n := 0
	for _, e := range ev {
		if e.Kind == trace.Quarantine && e.Note == "lifted; catch-up evaluation armed" {
			n++
		}
	}
	return n
}

// TestOverlappingQuarantinesSingleCatchup pins the noteQuarantine
// contract for overlapping outages of multiple groups: one contiguous
// degraded window arms exactly one forced catch-up evaluation — when
// the LAST quarantine lifts — while interleaved but disjoint windows
// arm one catch-up each.
func TestOverlappingQuarantinesSingleCatchup(t *testing.T) {
	bt := boundaryClocks(t, 8)

	t.Run("overlapping", func(t *testing.T) {
		// Group 0 down over boundaries 1-2, group 1 over 2-4: the
		// windows overlap, so the degradation is one contiguous span.
		tr := trace.New()
		r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 8, MaxLevel: 1, Trace: tr,
			Faults: quarWindows(t, [][3]float64{
				{0, (bt[0] + bt[1]) / 2, (bt[2] + bt[3]) / 2},
				{1, (bt[1] + bt[2]) / 2, (bt[4] + bt[5]) / 2},
			}),
		})
		res := r.Run()
		if res.QuarantinedSteps < 3 {
			t.Errorf("overlapping windows should quarantine >=3 boundaries, got %d", res.QuarantinedSteps)
		}
		if got := countLifts(tr.Events); got != 1 {
			t.Errorf("one contiguous degraded span must lift exactly once, got %d lifts", got)
		}
		if res.CatchupEvals != 1 {
			t.Errorf("exactly one forced catch-up evaluation must run when the last quarantine lifts, got %d", res.CatchupEvals)
		}
	})

	t.Run("disjoint", func(t *testing.T) {
		// Group 0 down around boundary 1, group 1 around boundary 5:
		// two separate degraded spans, two lifts, two catch-ups.
		tr := trace.New()
		r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 8, MaxLevel: 1, Trace: tr,
			Faults: quarWindows(t, [][3]float64{
				{0, (bt[0] + bt[1]) / 2, (bt[1] + bt[2]) / 2},
				{1, (bt[4] + bt[5]) / 2, (bt[6] + bt[7]) / 2},
			}),
		})
		res := r.Run()
		if got := countLifts(tr.Events); got != 2 {
			t.Errorf("two disjoint degraded spans must lift twice, got %d lifts", got)
		}
		if res.CatchupEvals != 2 {
			t.Errorf("each lift must force one catch-up evaluation, got %d", res.CatchupEvals)
		}
	})
}

// TestSuspicionFromProbeRetries drives the membership tracker from the
// probe path alone — no scripted processor failures: sustained probe
// loss must raise suspicion (visible in the counters), and the run
// must stay deterministic under the same seed.
func TestSuspicionFromProbeRetries(t *testing.T) {
	run := func() metrics.Result {
		sched, err := fault.NewSchedule(11,
			fault.Event{Kind: fault.ProbeLoss, A: 0, B: 1, Start: 0, End: 1e9, Prob: 0.97},
		)
		if err != nil {
			t.Fatal(err)
		}
		r := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 10, MaxLevel: 1, Faults: sched,
		})
		return *r.Run()
	}
	res := run()
	if res.SuspectTransitions == 0 {
		t.Fatalf("sustained probe loss must suspect at least one group's procs: %+v", res)
	}
	if res.RecoveryReport() == "" {
		t.Error("suspicion activity must produce a recovery report")
	}
	res2 := run()
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("suspicion path not deterministic:\n%+v\n%+v", res, res2)
	}
}

// TestQuorumDegradation: with a per-group quorum of 2 and only two
// processors per group, losing one processor drops its group below
// quorum — the group must degrade to local-only balancing (counted in
// QuorumDegradedSteps) and recover once the processor rejoins.
func TestQuorumDegradation(t *testing.T) {
	empty, err := fault.NewSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	var bt []float64
	New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: empty, GroupQuorum: 2,
		AfterStep: func(step int, rr *Runner) { bt = append(bt, rr.Clock().Now()) },
	}).Run()

	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.ProcFailure, Proc: 1,
			Start: (bt[0] + bt[1]) / 2, End: (bt[3] + bt[4]) / 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: sched, GroupQuorum: 2,
	})
	res := r.Run()
	if res.QuorumDegradedSteps < 1 {
		t.Errorf("outage must push group 0 below quorum for >=1 boundary, got %d", res.QuorumDegradedSteps)
	}
	if res.QuarantinedSteps < res.QuorumDegradedSteps {
		t.Errorf("below-quorum boundaries must count as quarantined: quar %d < degraded %d",
			res.QuarantinedSteps, res.QuorumDegradedSteps)
	}
	if res.Rejoins != 1 {
		t.Errorf("the processor must rejoin when its window closes, got %d", res.Rejoins)
	}
	if st := r.Membership().State(1); st != machine.StateAlive {
		t.Errorf("proc 1 should end the run alive, got %v", st)
	}
}

// TestResumeWhileProcDownReadmitsOnSchedule pins the satellite-6
// regression: a durable checkpoint taken while a processor is inside
// its outage window must, on resume, still re-admit the processor when
// the window closes — membership state survives the store round trip.
func TestResumeWhileProcDownReadmitsOnSchedule(t *testing.T) {
	bt := boundaryClocks(t, 8)
	start, end := (bt[1]+bt[2])/2, (bt[4]+bt[5])/2
	mkSched := func() *fault.Schedule {
		sched, err := fault.NewSchedule(7,
			fault.Event{Kind: fault.ProcFailure, Proc: 2, Start: start, End: end},
		)
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	dir := ckpt.NewMemDir()

	// The uninterrupted run, for comparison.
	full := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: mkSched(),
	}).Run()
	if full.Rejoins != 1 {
		t.Fatalf("setup: the outage must produce one rejoin, got %d", full.Rejoins)
	}

	// First leg: stop at step 4, inside the outage window, writing
	// durable checkpoints. The processor is down at the cut.
	firstLeg := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 4, MaxLevel: 1, Faults: mkSched(),
		Checkpoints: dir, CheckpointInterval: 1,
	})
	firstLeg.Run()
	if st := firstLeg.Membership().State(2); st != machine.StateDead {
		t.Fatalf("setup: proc 2 must be down at the cut, got %v", st)
	}

	// Resume with a fresh system and schedule, run to completion.
	r, _, err := Resume(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, Faults: mkSched(),
		Checkpoints: dir, CheckpointInterval: 1,
	})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st := r.Membership().State(2); st != machine.StateDead {
		t.Fatalf("restored membership must still hold proc 2 dead, got %v", st)
	}
	res := r.Run()
	if res.Rejoins != 1 {
		t.Fatalf("resumed run must re-admit proc 2 on schedule, got %d rejoins", res.Rejoins)
	}
	if st := r.Membership().State(2); st != machine.StateAlive {
		t.Fatalf("proc 2 should end the resumed run alive, got %v", st)
	}
	if r.Membership().ReadmitStep(2) < 0 {
		t.Fatal("re-admission step not recorded after resume")
	}
	if got := ownedCells(r, 2); got <= 0 {
		t.Error("rejoined proc 2 owns no work at the end of the resumed run")
	}
}
