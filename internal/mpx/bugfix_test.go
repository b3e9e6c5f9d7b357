package mpx

import (
	"runtime"
	"strings"
	"testing"
)

// TestRunAggregatesAllPanicValues pins the panic-propagation fix: Run
// must re-raise a *RunPanicError carrying its rank's ORIGINAL panic
// value and stack, not a flattened string, so that a caller merging
// the panics of several worlds keeps every typed value. The worlds are
// joined by no transport, so no abort turns a later one's own panic
// into a secondary failure.
func TestRunAggregatesAllPanicValues(t *testing.T) {
	type rankFault struct{ code int }
	worlds := make([]*World, 4)
	for r := range worlds {
		worlds[r] = NewShardWorld(len(worlds), identity, r, newLocalFabric().Endpoint(r))
	}
	rpe := runShards(worlds, func(r *Rank) { panic(rankFault{code: r.ID()}) })
	if rpe == nil {
		t.Fatal("no panic was re-raised")
	}
	if len(rpe.Panics) != 4 {
		t.Fatalf("aggregated %d panics, want all 4: %v", len(rpe.Panics), rpe)
	}
	seen := make(map[int]bool)
	for _, rp := range rpe.Panics {
		v, ok := rp.Value.(rankFault)
		if !ok {
			t.Fatalf("rank %d's value arrived as %T, want the original rankFault", rp.Rank, rp.Value)
		}
		if v.code != rp.Rank {
			t.Errorf("rank %d carries code %d", rp.Rank, v.code)
		}
		if len(rp.Stack) == 0 {
			t.Errorf("rank %d has no captured stack", rp.Rank)
		}
		seen[rp.Rank] = true
	}
	if len(seen) != 4 {
		t.Errorf("panics cover ranks %v, want all 4", seen)
	}
}

// TestRunPrimaryCauseUnderAbort: one rank fails while the rest block
// in Recv; the blocked ranks surface as secondary AbortErrors and
// Primary() identifies the real culprit.
func TestRunPrimaryCauseUnderAbort(t *testing.T) {
	worlds, _ := newWorlds(3)
	rpe := runShards(worlds, func(r *Rank) {
		if r.ID() == 0 {
			panic("boom")
		}
		r.Recv(0, 7) // never sent; must be woken by the abort
	})
	if rpe == nil {
		t.Fatal("want *RunPanicError")
	}
	prim := rpe.Primary()
	if prim == nil || prim.Rank != 0 {
		t.Fatalf("Primary = %+v, want rank 0's failure", prim)
	}
	if s, ok := prim.Value.(string); !ok || s != "boom" {
		t.Fatalf("primary value = %v, want the original \"boom\"", prim.Value)
	}
	for _, rp := range rpe.Panics {
		if rp.Rank == 0 {
			continue
		}
		if _, ok := rp.Value.(*AbortError); !ok {
			t.Errorf("blocked rank %d panicked %T, want *AbortError", rp.Rank, rp.Value)
		}
	}
}

// TestNegativeUserTagsRejected pins the tag validation: Send and Recv
// reject negative tags loudly.
func TestNegativeUserTagsRejected(t *testing.T) {
	worlds, _ := newWorlds(2)
	r := &Rank{world: worlds[0], id: 0}
	for _, op := range []struct {
		name string
		call func()
	}{
		{"Send", func() { r.Send(1, -1, []float64{1}) }},
		{"Send-deep-negative", func() { r.Send(1, -3, []float64{1}) }},
		{"Recv", func() { _ = r.Recv(1, -2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a negative tag must panic", op.name)
				}
			}()
			op.call()
		}()
	}
	// Tag 0 stays valid.
	runRanks(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{42})
		} else if got := r.Recv(0, 0); got[0] != 42 {
			t.Errorf("tag-0 payload = %v", got)
		}
	})
}

// queueState reports the queue length and backing capacity.
func (m *mailbox) queueState() (length, capacity int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending), cap(m.pending)
}

// TestMailboxCompactsAndReleases pins the retention fix: taking a
// message out of the middle of the queue must not leave its payload
// reachable through a stale tail slot, and a drained queue that grew
// beyond smallQueueCap must release its backing array.
func TestMailboxCompactsAndReleases(t *testing.T) {
	worlds, _ := newWorlds(2)
	box := worlds[1].boxes[0]
	const burst = 64
	for i := 0; i < burst; i++ {
		box.put(message{tag: i, data: make([]float64, 8)})
	}
	// Drain out of order (middle-first) so every removal compacts.
	box.take(burst / 2)
	for i := 0; i < burst; i++ {
		if i != burst/2 {
			box.take(i)
		}
	}
	if n, c := box.queueState(); n != 0 || c != 0 {
		t.Errorf("drained queue holds len=%d cap=%d, want the backing array released", n, c)
	}
	// A queue that never grew past smallQueueCap keeps its array.
	box.put(message{tag: 0, data: nil})
	box.take(0)
	if n, c := box.queueState(); n != 0 || c == 0 || c > smallQueueCap {
		t.Errorf("small queue len=%d cap=%d, want a retained array of at most %d", n, c, smallQueueCap)
	}
}

// TestMailboxRetentionHeapBound is the end-to-end memory check: bursts
// of large payloads through a world must not accumulate once consumed.
func TestMailboxRetentionHeapBound(t *testing.T) {
	const (
		rounds  = 8
		msgs    = 16
		words   = 1 << 15 // 256 KiB per payload
		payload = msgs * words * 8
	)
	worlds, _ := newWorlds(2)
	for round := 0; round < rounds; round++ {
		err := runShards(worlds, func(r *Rank) {
			if r.ID() == 0 {
				for i := 0; i < msgs; i++ {
					r.Send(1, i, make([]float64, words))
				}
			} else {
				for i := msgs - 1; i >= 0; i-- { // reverse: every take compacts
					_ = r.Recv(0, i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// All 8×16 payloads are garbage by now; allow generous slack for
	// the runtime itself but far less than even one retained burst.
	if ms.HeapAlloc > 3*payload {
		t.Errorf("heap after drain = %d bytes; consumed payloads appear retained (burst = %d bytes)",
			ms.HeapAlloc, payload)
	}
}

// failRankStep is the rank code TestRunPanicErrorPrintsPrimaryStack
// expects to find named in the error.
func failRankStep() { panic("boom") }

// TestRunPanicErrorPrintsPrimaryStack: a rank panic that is not a wire
// failure is re-raised until it crashes the process, which prints the
// error's text; every rank's stack was captured but none was printed,
// so the crash did not say where the rank failed.
func TestRunPanicErrorPrintsPrimaryStack(t *testing.T) {
	worlds, _ := newWorlds(2)
	rpe := runShards(worlds, func(r *Rank) {
		if r.ID() == 1 {
			failRankStep()
		}
	})
	if rpe == nil {
		t.Fatal("want *RunPanicError")
	}
	if msg := rpe.Error(); !strings.Contains(msg, "mpx.failRankStep") || !strings.Contains(msg, "[rank 1: boom]") {
		t.Errorf("error does not name the panicking function and its rank:\n%s", msg)
	}
}
