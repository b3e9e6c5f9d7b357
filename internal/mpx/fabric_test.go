package mpx

import (
	"fmt"
	"sync"
)

// localFabric connects shard worlds in-process without sockets: an
// order-preserving, error-free Transport that exercises the shard seam
// deterministically. SetFault can force sends to fail, to test the
// abort/fallback path.
type localFabric struct {
	shardOf func(rank int) int

	mu    sync.Mutex
	sinks map[int]Sink
	fault func(src, dst, tag int) error
}

// newLocalFabric creates a fabric routing rank r to shard shardOf(r).
func newLocalFabric(shardOf func(rank int) int) *localFabric {
	if shardOf == nil {
		panic("mpx.newLocalFabric: shardOf is required")
	}
	return &localFabric{shardOf: shardOf, sinks: make(map[int]Sink)}
}

// Bind attaches shard's sink (its world).
func (f *localFabric) Bind(shard int, s Sink) {
	f.mu.Lock()
	f.sinks[shard] = s
	f.mu.Unlock()
}

// SetFault installs a send-failure injector (nil clears it).
func (f *localFabric) SetFault(fn func(src, dst, tag int) error) {
	f.mu.Lock()
	f.fault = fn
	f.mu.Unlock()
}

// Endpoint returns the Transport view one shard uses.
func (f *localFabric) Endpoint(shard int) Transport {
	return &fabricEndpoint{f: f, shard: shard}
}

type fabricEndpoint struct {
	f     *localFabric
	shard int
}

func (e *fabricEndpoint) Send(src, dst, tag int, data []float64) error {
	e.f.mu.Lock()
	fault := e.f.fault
	sink := e.f.sinks[e.f.shardOf(dst)]
	e.f.mu.Unlock()
	if fault != nil {
		if err := fault(src, dst, tag); err != nil {
			return err
		}
	}
	if sink == nil {
		return fmt.Errorf("mpx: no sink bound for shard %d", e.f.shardOf(dst))
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	sink.Deliver(src, dst, tag, cp)
	return nil
}

func (e *fabricEndpoint) Abort(cause string) {
	e.f.mu.Lock()
	sinks := make([]Sink, 0, len(e.f.sinks))
	for shard, s := range e.f.sinks {
		if shard != e.shard {
			sinks = append(sinks, s)
		}
	}
	e.f.mu.Unlock()
	for _, s := range sinks {
		s.AbortFromWire(cause)
	}
}

func (e *fabricEndpoint) Close() error { return nil }

// oneShard builds an n-rank world whose ranks all live in shard 0, so
// its fabric never carries a message: the in-process world the
// point-to-point tests run on.
func oneShard(n int) *World {
	return NewShardWorld(n, func(int) int { return 0 }, 0, newLocalFabric(func(int) int { return 0 }).Endpoint(0))
}
