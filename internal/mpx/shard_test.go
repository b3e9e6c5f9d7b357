package mpx

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// runShards drives the same body over every shard world concurrently
// and returns the merged panic (nil when clean), mimicking how the
// engine joins shard phases.
func runShards(worlds []*World, body func(r *Rank)) *RunPanicError {
	var wg sync.WaitGroup
	panics := make([]interface{}, len(worlds))
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			w.Run(body)
		}(i, w)
	}
	wg.Wait()
	var merged RunPanicError
	for _, p := range panics {
		if p == nil {
			continue
		}
		rpe, ok := p.(*RunPanicError)
		if !ok {
			panic(p)
		}
		merged.Panics = append(merged.Panics, rpe.Panics...)
	}
	if len(merged.Panics) == 0 {
		return nil
	}
	return &merged
}

// exchangeBody is a deterministic all-to-all: every rank sends
// f(src, dst) to every other rank and verifies what it receives.
func exchangeBody(t *testing.T, results [][]float64) func(r *Rank) {
	return func(r *Rank) {
		for dst := 0; dst < r.Size(); dst++ {
			if dst != r.ID() {
				r.Send(dst, 5, []float64{float64(100*r.ID() + dst)})
			}
		}
		sum := 0.0
		for src := 0; src < r.Size(); src++ {
			if src == r.ID() {
				continue
			}
			got := r.Recv(src, 5)
			if want := float64(100*src + r.ID()); got[0] != want {
				t.Errorf("rank %d from %d: got %v want %v", r.ID(), src, got, want)
			}
			sum += got[0]
		}
		r.Barrier()
		results[r.ID()] = []float64{sum, allReduceSum(r, float64(r.ID()))}
	}
}

// TestShardWorldsMatchSingleWorld: the same exchange over (a) a
// one-shard world and (b) two shard worlds joined by a localFabric
// must produce identical per-rank results — including a gather and
// fan-out that cross the shard boundary through rank 0.
func TestShardWorldsMatchSingleWorld(t *testing.T) {
	const n = 6
	shardOf := func(rank int) int { return rank * 2 / n } // 0,0,0,1,1,1

	single := make([][]float64, n)
	oneShard(n).Run(exchangeBody(t, single))

	fab := newLocalFabric(shardOf)
	worlds := make([]*World, 2)
	for s := 0; s < 2; s++ {
		worlds[s] = NewShardWorld(n, shardOf, s, fab.Endpoint(s))
		fab.Bind(s, worlds[s])
	}
	sharded := make([][]float64, n)
	if err := runShards(worlds, exchangeBody(t, sharded)); err != nil {
		t.Fatalf("sharded run failed: %v", err)
	}

	for rank := 0; rank < n; rank++ {
		if len(single[rank]) != len(sharded[rank]) {
			t.Fatalf("rank %d: result shapes differ", rank)
		}
		for i := range single[rank] {
			if single[rank][i] != sharded[rank][i] {
				t.Errorf("rank %d result %d: single %v, sharded %v", rank, i, single[rank][i], sharded[rank][i])
			}
		}
	}
}

// TestShardWorldLocalRanks checks the shard partition bookkeeping: a
// shard world runs exactly the ranks its shard hosts.
func TestShardWorldLocalRanks(t *testing.T) {
	shardOf := func(r int) int { return r % 2 }
	fab := newLocalFabric(shardOf)
	w := NewShardWorld(5, shardOf, 1, fab.Endpoint(1))
	ran := make([]bool, w.Size())
	w.Run(func(r *Rank) { ran[r.ID()] = true })
	for rank, got := range ran {
		if want := shardOf(rank) == 1; got != want {
			t.Errorf("rank %d ran = %v, want %v", rank, got, want)
		}
	}
}

// TestFabricFaultAbortsAllShards: an injected send failure must panic
// the sending rank with the *TransportError, wake everything else with
// secondary aborts (local and across the fabric), and leave the merged
// failure TransportOnly so the engine knows it can fall back.
func TestFabricFaultAbortsAllShards(t *testing.T) {
	const n = 4
	shardOf := func(r int) int { return r / 2 }
	fab := newLocalFabric(shardOf)
	worlds := make([]*World, 2)
	for s := 0; s < 2; s++ {
		worlds[s] = NewShardWorld(n, shardOf, s, fab.Endpoint(s))
		fab.Bind(s, worlds[s])
	}
	wireDown := errors.New("wire down")
	fab.SetFault(func(src, dst, tag int) error {
		if src == 0 && dst == 3 {
			return wireDown
		}
		return nil
	})
	err := runShards(worlds, func(r *Rank) {
		for dst := 0; dst < n; dst++ {
			if dst != r.ID() {
				r.Send(dst, 1, []float64{1})
			}
		}
		for src := 0; src < n; src++ {
			if src != r.ID() {
				r.Recv(src, 1)
			}
		}
	})
	if err == nil {
		t.Fatal("faulted exchange completed")
	}
	if !err.TransportOnly() {
		t.Fatalf("failure not transport-only: %v", err)
	}
	prim := err.Primary()
	te, ok := prim.Value.(*TransportError)
	if !ok {
		t.Fatalf("primary = %v, want *TransportError", prim.Value)
	}
	if te.Src != 0 || te.Dst != 3 || !errors.Is(te, wireDown) {
		t.Errorf("transport error %+v does not identify the failed send", te)
	}
	for s, w := range worlds {
		if !w.aborted.Load() {
			t.Errorf("shard %d not aborted", s)
		}
	}
}

// dropOnce fails exactly one (src, dst, offer) attempt.
type dropOnce struct {
	src, dst int
	offer    uint64
}

func (d dropOnce) DropSend(src, dst int, n uint64) bool {
	return src == d.src && dst == d.dst && n == d.offer
}

// newTCPPair builds two fully connected shard worlds over real
// localhost sockets: ranks 0..1 on shard 0, ranks 2..3 on shard 1.
func newTCPPair(t *testing.T) ([]*World, []*TCPEndpoint) {
	t.Helper()
	const n = 4
	shardOf := func(r int) int { return r / 2 }
	eps := make([]*TCPEndpoint, 2)
	for s := 0; s < 2; s++ {
		ep, err := ListenTCP(s, "127.0.0.1:0", shardOf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[s] = ep
	}
	if err := eps[0].Dial(1, eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	worlds := make([]*World, 2)
	for s := 0; s < 2; s++ {
		worlds[s] = NewShardWorld(n, shardOf, s, eps[s])
		eps[s].Bind(worlds[s])
	}
	return worlds, eps
}

// TestTCPShardExchange runs a real-socket exchange with a reduction
// and checks the wire accounting moved actual frames.
func TestTCPShardExchange(t *testing.T) {
	worlds, eps := newTCPPair(t)
	results := make([][]float64, 4)
	if err := runShards(worlds, exchangeBody(t, results)); err != nil {
		t.Fatalf("tcp exchange failed: %v", err)
	}
	for rank, res := range results {
		// sum of 100*src+rank over the three peers; allReduceSum(0..3)=6.
		want := 0.0
		for src := 0; src < 4; src++ {
			if src != rank {
				want += float64(100*src + rank)
			}
		}
		if res[0] != want || res[1] != 6 {
			t.Errorf("rank %d results %v, want [%v 6]", rank, res, want)
		}
	}
	frames, bytes := eps[0].Stats()
	if frames == 0 || bytes == 0 {
		t.Error("no frames crossed the wire; exchange fell back to memory?")
	}
}

// TestTCPFaultIsTransportOnly injects one wire drop over real sockets:
// the phase fails transport-only, its primary failure names the dropped
// send, and every world is aborted — the caller's cue to leave the wire.
func TestTCPFaultIsTransportOnly(t *testing.T) {
	worlds, eps := newTCPPair(t)
	for _, ep := range eps {
		ep.SetFault(dropOnce{src: 1, dst: 2, offer: 0})
	}
	body := func(r *Rank) {
		for dst := 0; dst < 4; dst++ {
			if dst != r.ID() {
				r.Send(dst, 9, []float64{float64(r.ID())})
			}
		}
		for src := 0; src < 4; src++ {
			if src != r.ID() {
				if got := r.Recv(src, 9); got[0] != float64(src) {
					panic(fmt.Sprintf("rank %d got %v from %d", r.ID(), got, src))
				}
			}
		}
	}
	err := runShards(worlds, body)
	if err == nil {
		t.Fatal("dropped send did not fail the phase")
	}
	if !err.TransportOnly() {
		t.Fatalf("failure not transport-only: %v", err)
	}
	te, ok := err.Primary().Value.(*TransportError)
	if !ok || te.Src != 1 || te.Dst != 2 {
		t.Fatalf("primary %+v, want the 1 -> 2 drop", err.Primary())
	}
	for s, w := range worlds {
		if !w.aborted.Load() {
			t.Errorf("shard %d not aborted", s)
		}
	}
}

// TestTCPDialValidation covers the handshake checks.
func TestTCPDialValidation(t *testing.T) {
	shardOf := func(r int) int { return r }
	a, err := ListenTCP(0, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(2, b.Addr()); err == nil {
		t.Error("dialing shard 2 at shard 1's address must fail the identity check")
	}
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Dial(1, b.Addr()); err == nil {
		t.Error("duplicate dial must be rejected")
	}
}
