package mpx

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// runShards drives the same body over every world concurrently and
// returns the merged panic (nil when clean), as the engine joins a
// phase's worlds.
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
		results[r.ID()] = []float64{sum, allReduceSum(r, float64(r.ID()))}
	}
}

// TestShardWorldsMatchSingleWorld: the same exchange over worlds
// joined in this process, the in-memory reference, and over real
// sockets must produce identical per-rank results — including a
// gather and fan-out that cross every world through rank 0.
func TestShardWorldsMatchSingleWorld(t *testing.T) {
	const n = 4
	mem := make([][]float64, n)
	runRanks(t, n, exchangeBody(t, mem))

	worlds, _ := newTCPWorlds(t, n)
	wire := make([][]float64, n)
	if err := runShards(worlds, exchangeBody(t, wire)); err != nil {
		t.Fatalf("tcp run failed: %v", err)
	}

	for rank := 0; rank < n; rank++ {
		if !slices.Equal(mem[rank], wire[rank]) {
			t.Errorf("rank %d: in memory %v, over tcp %v", rank, mem[rank], wire[rank])
		}
	}
}

// TestFabricFaultAbortsAllShards: an injected send failure must panic
// the sending rank with the *TransportError, wake everything else with
// secondary aborts across the fabric, and leave the merged failure
// TransportOnly so the engine knows it can fall back.
func TestFabricFaultAbortsAllShards(t *testing.T) {
	const n = 4
	worlds, fab := newWorlds(n)
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

// newTCPWorlds builds n fully connected worlds over real localhost
// sockets, one rank each.
func newTCPWorlds(t *testing.T, n int) ([]*World, []*TCPEndpoint) {
	t.Helper()
	eps := make([]*TCPEndpoint, n)
	for s := range eps {
		ep, err := ListenTCP(s, "127.0.0.1:0", identity)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[s] = ep
	}
	for a := range eps {
		for b := a + 1; b < n; b++ {
			if err := eps[a].Dial(b, eps[b].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	worlds := make([]*World, n)
	for s := range worlds {
		worlds[s] = NewShardWorld(n, identity, s, eps[s])
		eps[s].Bind(worlds[s])
	}
	return worlds, eps
}

// TestTCPShardExchange runs a real-socket exchange with a reduction
// and checks the wire accounting moved actual frames.
func TestTCPShardExchange(t *testing.T) {
	worlds, eps := newTCPWorlds(t, 4)
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

// TestTCPDecodesIntoReleasedPayloads: a payload the receiver released
// is the storage the next message of a size it holds decodes into, so
// a steady exchange allocates no payloads; a larger message gets new
// storage, and the world keeps at most one spare per rank.
func TestTCPDecodesIntoReleasedPayloads(t *testing.T) {
	worlds, _ := newTCPWorlds(t, 2)
	var got [][]float64
	round := func(n int, release bool) {
		msg := make([]float64, n)
		for i := range msg {
			msg[i] = float64(len(got)*1000 + i)
		}
		if err := runShards(worlds, func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 3, msg)
				return
			}
			data := r.Recv(0, 3)
			if !slices.Equal(data, msg) {
				t.Errorf("round %d: received %v, want %v", len(got), data, msg)
			}
			got = append(got, data)
			if release {
				r.Release(data)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	round(64, true)
	round(48, true) // fits the 64-value spare
	round(96, true) // fits none: new storage
	round(32, false)
	same := func(a, b []float64) bool { return &a[:1][0] == &b[:1][0] }
	if !same(got[1], got[0]) {
		t.Error("a 48-value message did not reuse the released 64-value payload")
	}
	if same(got[2], got[1]) {
		t.Error("a 96-value message was decoded into a 64-value payload")
	}
	if !same(got[3], got[0]) {
		t.Error("a 32-value message did not go into the 64-value spare, the smallest that holds it")
	}
	if n := len(worlds[1].spares); n > 2 {
		t.Errorf("world keeps %d spares, want at most one per rank (2)", n)
	}
}

// TestTCPFaultIsTransportOnly injects one wire drop over real sockets:
// the phase fails transport-only, its primary failure names the dropped
// send, and every world is aborted — the caller's cue to leave the wire.
func TestTCPFaultIsTransportOnly(t *testing.T) {
	worlds, eps := newTCPWorlds(t, 4)
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
	a, err := ListenTCP(0, "127.0.0.1:0", identity)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, "127.0.0.1:0", identity)
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
	if _, err := ListenTCP(1, "127.0.0.1:0", func(r int) int { return r / 2 }); err == nil {
		t.Error("an endpoint must refuse a shard that hosts another shard's rank")
	}
}
