package mpx

import (
	"fmt"
	"sync"
	"testing"
)

// localFabric connects worlds in-process without sockets: an
// order-preserving, error-free Transport that routes each message to
// the world hosting its destination rank. SetFault can force sends to
// fail, to test the abort/fallback path.
type localFabric struct {
	mu    sync.Mutex
	sinks map[int]Sink
	fault func(src, dst, tag int) error
}

func newLocalFabric() *localFabric {
	return &localFabric{sinks: make(map[int]Sink)}
}

// Bind attaches the sink (the world) hosting rank.
func (f *localFabric) Bind(rank int, s Sink) {
	f.mu.Lock()
	f.sinks[rank] = s
	f.mu.Unlock()
}

// SetFault installs a send-failure injector (nil clears it).
func (f *localFabric) SetFault(fn func(src, dst, tag int) error) {
	f.mu.Lock()
	f.fault = fn
	f.mu.Unlock()
}

// Endpoint returns the Transport view one rank's world uses.
func (f *localFabric) Endpoint(rank int) Transport {
	return &fabricEndpoint{f: f, rank: rank}
}

type fabricEndpoint struct {
	f    *localFabric
	rank int
}

func (e *fabricEndpoint) Send(src, dst, tag int, data []float64) error {
	e.f.mu.Lock()
	fault := e.f.fault
	sink := e.f.sinks[dst]
	e.f.mu.Unlock()
	if fault != nil {
		if err := fault(src, dst, tag); err != nil {
			return err
		}
	}
	if sink == nil {
		return fmt.Errorf("mpx: no sink bound for rank %d", dst)
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	sink.Deliver(src, dst, tag, cp)
	return nil
}

func (e *fabricEndpoint) Abort(cause string) {
	e.f.mu.Lock()
	sinks := make([]Sink, 0, len(e.f.sinks))
	for rank, s := range e.f.sinks {
		if rank != e.rank {
			sinks = append(sinks, s)
		}
	}
	e.f.mu.Unlock()
	for _, s := range sinks {
		s.AbortFromWire(cause)
	}
}

func (e *fabricEndpoint) Close() error { return nil }

// identity is the one rank-to-shard mapping a world accepts.
func identity(rank int) int { return rank }

// newWorlds builds a communicator of n ranks in this process: one world
// per rank, joined by a localFabric.
func newWorlds(n int) ([]*World, *localFabric) {
	f := newLocalFabric()
	worlds := make([]*World, n)
	for r := range worlds {
		worlds[r] = NewShardWorld(n, identity, r, f.Endpoint(r))
		f.Bind(r, worlds[r])
	}
	return worlds, f
}

// runRanks runs body on every rank of a fresh n-rank communicator and
// fails the test if any rank panicked.
func runRanks(t *testing.T, n int, body func(r *Rank)) {
	t.Helper()
	worlds, _ := newWorlds(n)
	if err := runShards(worlds, body); err != nil {
		t.Fatal(err)
	}
}
