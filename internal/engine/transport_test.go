package engine

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/mpx"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/workload"
)

// transportOptions is the reference scenario's options (run on two
// WAN groups of two procs each) under the given transport ("" is the
// shared-memory data path).
func transportOptions(transport string, wf mpx.WireFault) Options {
	return Options{
		Steps: 3, MaxLevel: 1, WithData: true, UseMPX: transport != "",
		Transport: transport, wireFault: wf,
	}
}

// runReference executes the reference scenario under opt and returns
// the result plus the runner for field inspection.
func runReference(opt Options) (*metrics.Result, *Runner) {
	r := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), opt)
	return r.Run(), r
}

// runTransport executes the reference scenario under the given
// transport, wire fault and host pool.
func runTransport(transport string, wf mpx.WireFault, pool *solver.Pool) (*metrics.Result, *Runner) {
	opt := transportOptions(transport, wf)
	opt.Pool = pool
	return runReference(opt)
}

// requireIdenticalRuns asserts the cross-data-path oracle: the Result
// identity and every field value must agree bit-for-bit between the two
// runs.
func requireIdenticalRuns(t *testing.T, a, b *metrics.Result, ra, rb *Runner) {
	t.Helper()
	if a.Identity() != b.Identity() {
		t.Errorf("Result differs across data paths:\n%s\n%s", a.Identity(), b.Identity())
	}
	for l := 0; l <= 1; l++ {
		ga, gb := ra.Hierarchy().Grids(l), rb.Hierarchy().Grids(l)
		if len(ga) != len(gb) {
			t.Fatalf("grid counts differ at level %d: %d vs %d", l, len(ga), len(gb))
		}
		for i := range ga {
			fa, fb := ga[i].Patch.Field(solver.FieldQ), gb[i].Patch.Field(solver.FieldQ)
			for k := range fa {
				if fa[k] != fb[k] {
					t.Fatalf("level %d grid %d differs at %d: %v vs %v", l, i, k, fa[k], fb[k])
				}
			}
		}
	}
}

// TestTCPTransportMatchesSharedMemory is the wire's safety net: the
// same seeded scenario on the shared-memory data path and over real
// per-group TCP shards must produce identical Results and bit-identical
// field data, with the tcp run demonstrably moving frames across
// actual sockets.
func TestTCPTransportMatchesSharedMemory(t *testing.T) {
	shmRes, shmRun := runTransport("", nil, nil)
	tcpRes, tcpRun := runTransport(TransportTCP, nil, nil)

	requireIdenticalRuns(t, shmRes, tcpRes, shmRun, tcpRun)

	if tcpRes.TransportFrames == 0 || tcpRes.TransportBytes == 0 {
		t.Error("tcp run moved no wire frames; the exchange stayed in memory")
	}
	if tcpRes.TransportFaults != 0 || tcpRes.TransportFallbacks != 0 {
		t.Errorf("clean tcp run reports %d faults, %d fallbacks",
			tcpRes.TransportFaults, tcpRes.TransportFallbacks)
	}
	if shmRes.TransportFrames != 0 {
		t.Errorf("shared-memory run reports %d wire frames", shmRes.TransportFrames)
	}
	if s := tcpRes.TransportSummary(); !strings.Contains(s, "wire transport") {
		t.Errorf("TransportSummary = %q", s)
	}
	if s := shmRes.TransportSummary(); s != "" {
		t.Errorf("shared-memory TransportSummary = %q, want empty", s)
	}

	// The kernel sweep runs over the host pool on every transport: a
	// four-worker pool and none (inline) must agree to the last bit.
	pooledRes, pooledRun := runTransport(TransportTCP, nil, solver.NewPool(4))
	requireIdenticalRuns(t, tcpRes, pooledRes, tcpRun, pooledRun)
	if !reflect.DeepEqual(tcpRes, pooledRes) {
		t.Errorf("tcp Results differ between Pool=nil and a 4-worker pool:\n%+v\n%+v", tcpRes, pooledRes)
	}
}

// dropFirstOffers fails the first send attempt of every (src, dst)
// pair, so the first wire phase fails and every pair's first frame is
// dropped.
type dropFirstOffers struct{}

func (dropFirstOffers) DropSend(src, dst int, n uint64) bool { return n == 0 }

// TestWireFaultFallsBackAndStaysIdentical injects wire drops: the
// faulted phase folds into the fault/fallback counters, the run detaches
// and never writes a frame again, and the in-memory data path keeps the
// run bit-identical to the shared-memory one — a flaky wire may cost
// availability, never correctness.
func TestWireFaultFallsBackAndStaysIdentical(t *testing.T) {
	shmRes, shmRun := runTransport("", nil, nil)
	tcpRes, tcpRun := runTransport(TransportTCP, dropFirstOffers{}, nil)

	requireIdenticalRuns(t, shmRes, tcpRes, shmRun, tcpRun)

	if tcpRes.TransportFaults == 0 {
		t.Error("injected drops produced no recorded transport faults")
	}
	if tcpRes.TransportFallbacks != 1 {
		t.Errorf("%d phase fallbacks, want 1: the first wire failure detaches", tcpRes.TransportFallbacks)
	}
	// The failed phase was the first, and every frame it offered was
	// dropped: any frame on the wire was written after it.
	if tcpRes.TransportFrames != 0 {
		t.Errorf("%d frames written after the failed first phase, want 0", tcpRes.TransportFrames)
	}
	if !tcpRun.shards.detached.Load() {
		t.Error("a failed wire phase left the run attached")
	}
	if s := tcpRes.TransportSummary(); !strings.Contains(s, "fallback") {
		t.Errorf("TransportSummary = %q, want fault/fallback accounting", s)
	}
}

// dropSparseOffers fails every seventh send attempt of each (src, dst)
// pair. With one offer per pair per wire phase, the first drop kills a
// phase midway after clean wire phases ran; the run detaches there, so
// the later drops are never offered.
type dropSparseOffers struct{}

func (dropSparseOffers) DropSend(src, dst int, n uint64) bool { return n%7 == 3 }

// TestWireFaultsOnManyPhasesStayIdentical is the abort-hygiene pin: a
// phase a wire fault kills midway leaves half-packed send buffers and
// a half-consumed receive behind, and neither may reach the in-memory
// phases that follow it.
func TestWireFaultsOnManyPhasesStayIdentical(t *testing.T) {
	shmRes, shmRun := runTransport("", nil, nil)
	tcpRes, tcpRun := runTransport(TransportTCP, dropSparseOffers{}, nil)

	requireIdenticalRuns(t, shmRes, tcpRes, shmRun, tcpRun)

	if tcpRes.TransportFallbacks != 1 {
		t.Errorf("%d phase fallbacks, want 1: the first wire failure detaches", tcpRes.TransportFallbacks)
	}
	if tcpRes.TransportFrames == 0 {
		t.Error("no phase before the faulted one ran over the wire")
	}
}

// probeLoss is a fault schedule (seed 7) losing nine probes in ten
// between the two groups for the whole run: it arms the membership
// tracker, and over six steps one more failure fed to it changes the
// Result.
func probeLoss(t *testing.T) *fault.Schedule {
	t.Helper()
	s, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.ProbeLoss, A: 0, B: 1, Start: 0, End: 1e9, Prob: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWireFaultNeverReachesSuspicion pins the one wire-failure policy on
// a run with a membership tracker: when a wire phase fails is wall-
// clock, so the failure must not feed suspicion or anything else the
// balancer reads. A tcp run with wire drops reports the very Result and
// fields of the shared-memory run under the same probe-loss schedule.
func TestWireFaultNeverReachesSuspicion(t *testing.T) {
	shmOpt := transportOptions("", nil)
	shmOpt.Steps, shmOpt.Faults = 6, probeLoss(t)
	shmRes, shmRun := runReference(shmOpt)
	if shmRes.SuspectTransitions == 0 {
		t.Fatal("the probe-loss schedule raised no suspicion; the run exercises no tracker")
	}
	for _, wf := range []mpx.WireFault{dropFirstOffers{}, dropSparseOffers{}} {
		tcpOpt := transportOptions(TransportTCP, wf)
		tcpOpt.Steps, tcpOpt.Faults = 6, probeLoss(t) // a schedule is one run's
		tcpRes, tcpRun := runReference(tcpOpt)
		requireIdenticalRuns(t, shmRes, tcpRes, shmRun, tcpRun)
		if tcpRes.TransportFallbacks != 1 {
			t.Errorf("%T: %d phase fallbacks, want 1", wf, tcpRes.TransportFallbacks)
		}
	}
}

// eachTCPLifecycle runs a clean tcp run, one whose injected fault
// detaches it, and one whose handshake cannot finish, calling settled
// after each.
func eachTCPLifecycle(t *testing.T, settled func(what string)) {
	t.Helper()
	runTransport(TransportTCP, nil, nil)
	settled("clean tcp run")
	runTransport(TransportTCP, dropSparseOffers{}, nil)
	settled("detached tcp run")
	opt := transportOptions(TransportTCP, nil)
	opt.WireTimeout = time.Nanosecond
	if _, err := Build(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), opt); err == nil {
		t.Fatal("a 1ns wire timeout let the handshake finish")
	}
	settled("failed tcp setup")
}

// settleTo waits up to 1 s for count() to fall back to base.
func settleTo(t *testing.T, what, unit string, base int, count func() int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for count() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d %s, %d before it", what, count(), unit, base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPTransportLeaksNoGoroutines: each tcp lifecycle must leave the
// goroutine count where it found it — endpoints closed, readers,
// heartbeats and admitters joined.
func TestTCPTransportLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	eachTCPLifecycle(t, func(what string) {
		settleTo(t, what, "goroutines", base, runtime.NumGoroutine)
	})
}

// TestTCPTransportLeaksNoFDs: each tcp lifecycle must leave the open
// file descriptor count where it found it — every listener and
// connection closed, the failed handshake's included.
func TestTCPTransportLeaksNoFDs(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	// An unreachable conn an earlier test leaked is closed by its
	// finalizer whenever a GC runs; run one now so that cannot happen
	// mid-test and hide this test's own leak.
	runtime.GC()
	base := openFDs()
	eachTCPLifecycle(t, func(what string) {
		settleTo(t, what, "open fds", base, openFDs)
	})
}

// TestTCPFramesBoundedByRankPairsAndPhases pins the coalescing: a rank
// is a processor group, and a fault-free run puts at most one frame per
// ordered group pair on the wire per exchange — one fill on every level
// step, prolongations and sibling copies together, and one restrict per
// step of a level that has a finer one — however many grids and
// overlap boxes the two groups share. (Heartbeats are not counted as
// frames.)
func TestTCPFramesBoundedByRankPairsAndPhases(t *testing.T) {
	const maxLevel = 1
	sys := machine.WanPair(2, nil)
	tr := trace.New()
	r := New(sys, workload.NewShockPool3D(16, 2), Options{
		Steps: 3, MaxLevel: maxLevel, WithData: true, UseMPX: true,
		Transport: TransportTCP, Trace: tr,
	})
	res := r.Run()
	exchanges := 0
	for _, level := range tr.StepLevels() {
		exchanges++ // fill
		if level < maxLevel {
			exchanges++ // restrict of the finer level, when it has grids
		}
	}
	pairs := sys.NumGroups() * (sys.NumGroups() - 1)
	if res.TransportFrames == 0 {
		t.Fatal("tcp run moved no wire frames")
	}
	if limit := int64(pairs * exchanges); res.TransportFrames > limit {
		t.Errorf("%d frames for %d exchanges over %d ordered group pairs, want ≤ %d",
			res.TransportFrames, exchanges, pairs, limit)
	}
}

// TestTCPTransportRequiresMPX pins the option validation.
func TestTCPTransportRequiresMPX(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Transport=tcp without UseMPX must panic")
		}
	}()
	New(machine.WanPair(1, nil), workload.NewShockPool3D(16, 2),
		Options{Steps: 1, Transport: TransportTCP})
}

// TestUnknownTransportRejected pins the option validation.
func TestUnknownTransportRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown Transport must panic")
		}
	}()
	New(machine.WanPair(1, nil), workload.NewShockPool3D(16, 2),
		Options{Steps: 1, WithData: true, UseMPX: true, Transport: "carrier-pigeon"})
}

// TestPruneErrorsSurfaceInResult drives the satellite fix end to end:
// a DiskWriteError window with a negligible per-write probability lets
// every checkpoint land but fails every prune removal, so the stranded
// deletions must show up in Result.DiskPruneErrors and the checkpoint
// summary instead of vanishing.
func TestPruneErrorsSurfaceInResult(t *testing.T) {
	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.DiskWriteError, Start: 0, End: 1e9, Prob: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	r := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 6, MaxLevel: 1,
		Checkpoints: ckpt.NewMemDir(), CheckpointInterval: 1,
		Faults: sched,
	})
	res := r.Run()
	if res.DiskCheckpointErrors != 0 {
		t.Fatalf("writes failed (%d); the window's probability should only hit removals", res.DiskCheckpointErrors)
	}
	if res.DiskPruneErrors == 0 {
		t.Error("failed prune removals not counted in Result.DiskPruneErrors")
	}
	sum := res.CheckpointSummary()
	if !strings.Contains(sum, "prune failures") {
		t.Errorf("CheckpointSummary = %q, want prune failures reported", sum)
	}
}
