package engine

import (
	"sync"
	"testing"
	"time"

	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/mpx"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// connectedWorkerEndpoints brings up one wire endpoint per processor
// group, fully connected with the lower-dials-higher convention, with
// wire timeouts (and therefore heartbeats) armed before any dial.
func connectedWorkerEndpoints(t *testing.T, ngroups int, wireTimeout time.Duration) []*mpx.TCPEndpoint {
	t.Helper()
	sys := machine.WanPair(2, nil)
	eps := make([]*mpx.TCPEndpoint, ngroups)
	for g := range eps {
		ep, err := mpx.ListenTCP(g, "127.0.0.1:0", sys.GroupOf)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetWireTimeout(wireTimeout)
		eps[g] = ep
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	for i := 0; i < ngroups; i++ {
		for j := i + 1; j < ngroups; j++ {
			if err := eps[i].DialRetry(j, eps[j].Addr(), 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eps
}

// newWorkerRunner builds one worker-process replica of the reference
// scenario, hosting ep's group (nil runs it detached). Each replica
// gets its own System and driver — in a real supervised run they live
// in separate OS processes.
func newWorkerRunner(steps int, ep *mpx.TCPEndpoint) *Runner {
	return New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: steps, MaxLevel: 1, WithData: true, UseMPX: true,
		Transport: TransportWorker, Worker: ep,
	})
}

// requireWorkerResultMatches asserts the worker-replica oracle: the
// Result identity must match the shared-memory run's. Field data is
// deliberately not part of the contract — a worker's copies of
// remote-owned grids go stale by design, and once any phase falls back
// the in-memory rewrite reads those stale copies. Only the Result is
// pinned across workers.
func requireWorkerResultMatches(t *testing.T, who string, ref, got *metrics.Result) {
	t.Helper()
	if got.Identity() != ref.Identity() {
		t.Errorf("%s: Result diverged:\n got: %s\nwant: %s", who, got.Identity(), ref.Identity())
	}
}

// TestWorkerTransportMatchesSharedMemory is the multi-process mode's
// in-process safety net: one engine replica per group, each hosting
// only its shard behind a real socket, run concurrently — and every
// replica must report the very Result the shared-memory run reports,
// with frames demonstrably crossing the wire.
func TestWorkerTransportMatchesSharedMemory(t *testing.T) {
	shmRes, shmRun := runTransport("", nil, nil)

	eps := connectedWorkerEndpoints(t, 2, 5*time.Second)
	runners := make([]*Runner, 2)
	for g := range runners {
		runners[g] = newWorkerRunner(3, eps[g])
	}
	results := make([]*metrics.Result, 2)
	var wg sync.WaitGroup
	for g := range runners {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = runners[g].Run()
		}(g)
	}
	wg.Wait()

	for g, res := range results {
		requireWorkerResultMatches(t, "worker "+string(rune('0'+g)), shmRes, res)
		if res.TransportFrames == 0 || res.TransportBytes == 0 {
			t.Errorf("worker %d moved no wire frames; the exchange stayed in memory", g)
		}
		// No fallback assertion here: the first worker to finish closes
		// its endpoint, and a peer still draining its final phase may
		// legally detach onto the (bit-identical) in-memory path.
	}

	// Owned-grid exactness: while every phase runs over the wire, ghost
	// data always comes from the owning worker, so owned interiors never
	// drift — bit-for-bit equal to the shared-memory run. The guarantee ends
	// at the first fallback (the in-memory rewrite reads stale copies of
	// remote-owned grids), so skip a worker that detached during the
	// end-of-run teardown race.
	sys := machine.WanPair(2, nil)
	for g, rr := range runners {
		if results[g].TransportFallbacks != 0 {
			continue
		}
		for l := 0; l <= 1; l++ {
			ga, gw := shmRun.Hierarchy().Grids(l), rr.Hierarchy().Grids(l)
			if len(ga) != len(gw) {
				t.Fatalf("worker %d: grid counts differ at level %d: %d vs %d", g, l, len(gw), len(ga))
			}
			for i := range gw {
				if sys.GroupOf(gw[i].Owner) != g {
					continue
				}
				fa, fw := ga[i].Patch.Field(solver.FieldQ), gw[i].Patch.Field(solver.FieldQ)
				for k := range fa {
					if fa[k] != fw[k] {
						t.Fatalf("worker %d: owned level %d grid %d differs at %d: %v vs %v",
							g, l, i, k, fw[k], fa[k])
					}
				}
			}
		}
	}
}

// TestWorkerDetachOnPeerExitStaysIdentical pins the crash-survival
// contract: worker 1 vanishes after one step (its endpoint closes with
// its process — here emulated by a shorter Steps budget), and worker 0
// must detect the loss, permanently detach onto the in-memory data
// path, and still finish with exactly the fault-free Result — a dead
// peer costs availability of the wire, never correctness.
func TestWorkerDetachOnPeerExitStaysIdentical(t *testing.T) {
	shmRes, _ := runTransport("", nil, nil)

	eps := connectedWorkerEndpoints(t, 2, 2*time.Second)
	survivor := newWorkerRunner(3, eps[0])
	quitter := newWorkerRunner(1, eps[1])

	var res0 *metrics.Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res0 = survivor.Run()
	}()
	go func() {
		defer wg.Done()
		quitter.Run()
	}()
	wg.Wait()

	requireWorkerResultMatches(t, "survivor", shmRes, res0)
	if res0.TransportFallbacks == 0 {
		t.Error("survivor never fell back; peer loss went unnoticed")
	}
	if res0.TransportFrames == 0 {
		t.Error("survivor moved no wire frames before the peer left")
	}
}

// TestWorkerTransportValidation pins the option validation for the
// worker transport mode.
func TestWorkerTransportValidation(t *testing.T) {
	mustPanic := func(name string, opt Options) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(machine.WanPair(1, nil), workload.NewShockPool3D(16, 2), opt)
	}
	mustPanic("worker without UseMPX", Options{Steps: 1, Transport: TransportWorker})
	mustPanic("worker with DataCheck", Options{
		Steps: 1, WithData: true, UseMPX: true, DataCheck: true,
		Transport: TransportWorker,
	})
}

// TestDetachedWorkerRunsPlainPath pins the restart path's engine mode:
// a detached worker (no endpoint at all) must run the plain in-memory
// path end-to-end and still produce the reference Result.
func TestDetachedWorkerRunsPlainPath(t *testing.T) {
	shmRes, _ := runTransport("", nil, nil)
	res := newWorkerRunner(3, nil).Run()
	requireWorkerResultMatches(t, "detached worker", shmRes, res)
	if res.TransportFrames != 0 {
		t.Errorf("detached worker reports %d wire frames", res.TransportFrames)
	}
}
