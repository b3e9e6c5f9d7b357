// Package mpx is a minimal message-passing runtime in the style of
// MPI, the substrate ENZO uses for inter-processor communication. A
// World is one shard of a communicator over n ranks: it hosts the
// ranks its shard owns, each on its own goroutine with point-to-point
// tagged sends and receives and barriers, and reaches the others
// through a Transport (TCPEndpoint carries it over real sockets).
//
// Sends are buffered and never block (mailboxes grow as needed), so
// bulk-synchronous exchange patterns — every rank posting all its
// sends, then draining its receives — cannot deadlock. Receives match
// (source, tag) pairs and tolerate out-of-order arrival: a remote
// message is delivered into the same mailbox a local one is put into,
// and the transport preserves per-connection order, so where a rank
// lives never changes what it receives. Barriers synchronise the local
// ranks only.
package mpx

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// World is one shard of a communicator over n ranks.
type World struct {
	n     int
	boxes [][]*mailbox // boxes[dst][src]
	bar   *barrier

	// A world hosts only the ranks with shardOf[rank] == self and
	// routes sends to the rest through tr.
	local   []int
	shardOf []int
	self    int
	tr      Transport

	aborted atomic.Bool
	cause   atomic.Value // string; first abort cause wins
}

// NewShardWorld creates a communicator over n ranks of which only the
// ranks with shardOf(rank) == self run locally; sends to the others
// travel over tr, and their sends arrive via Deliver (the transport
// calls it from its receive path). Barriers synchronise the local
// ranks only — cross-shard phases rely on tag matching, and the
// caller joins the shards between phases.
func NewShardWorld(n int, shardOf func(rank int) int, self int, tr Transport) *World {
	if n <= 0 {
		panic("mpx.NewShardWorld: need at least one rank")
	}
	if shardOf == nil || tr == nil {
		panic("mpx.NewShardWorld: shardOf and transport are required")
	}
	w := &World{n: n, shardOf: make([]int, n), self: self, tr: tr}
	w.boxes = make([][]*mailbox, n)
	for dst := 0; dst < n; dst++ {
		w.boxes[dst] = make([]*mailbox, n)
		for src := 0; src < n; src++ {
			w.boxes[dst][src] = newMailbox(w)
		}
	}
	for r := 0; r < n; r++ {
		w.shardOf[r] = shardOf(r)
		if w.shardOf[r] == self {
			w.local = append(w.local, r)
		}
	}
	if len(w.local) == 0 {
		panic(fmt.Sprintf("mpx.NewShardWorld: shard %d hosts no ranks", self))
	}
	w.bar = newBarrier(w, len(w.local))
	return w
}

// RankPanic records one rank's panic with the original value and the
// goroutine stack it unwound.
type RankPanic struct {
	Rank  int
	Value interface{}
	Stack []byte
}

// RunPanicError aggregates every rank panic of one Run call. Run
// re-raises it as the panic value, so callers recover the original
// per-rank values instead of a flattened string.
type RunPanicError struct {
	Panics []RankPanic
}

// Error lists every rank's panic value, then the primary panic's
// stack: a re-raised rank panic that crashes the process prints this,
// and the stack is the only record of where the rank failed.
func (e *RunPanicError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpx: %d rank(s) panicked:", len(e.Panics))
	for _, p := range e.Panics {
		fmt.Fprintf(&b, " [rank %d: %v]", p.Rank, p.Value)
	}
	if p := e.Primary(); p != nil {
		fmt.Fprintf(&b, "\nrank %d's stack:\n%s", p.Rank, p.Stack)
	}
	return b.String()
}

// Primary returns the first panic that is not a secondary AbortError
// (falling back to the first panic of any kind): the failure that
// aborted the phase, as opposed to the ranks it woke up.
func (e *RunPanicError) Primary() *RankPanic {
	for i := range e.Panics {
		if _, ok := e.Panics[i].Value.(*AbortError); !ok {
			return &e.Panics[i]
		}
	}
	if len(e.Panics) > 0 {
		return &e.Panics[0]
	}
	return nil
}

// TransportOnly reports whether every panic is either a transport
// failure or a secondary abort — i.e. the phase failed purely because
// the wire did, and the computation itself never misbehaved.
func (e *RunPanicError) TransportOnly() bool {
	if len(e.Panics) == 0 {
		return false
	}
	for _, p := range e.Panics {
		switch p.Value.(type) {
		case *TransportError, *AbortError:
		default:
			return false
		}
	}
	return true
}

// Run executes body once per locally hosted rank, each on its own
// goroutine, and waits for all of them. If any rank panics the world
// aborts: blocked ranks are woken with an AbortError, the transport
// propagates the abort to peer shards, and Run re-raises a
// *RunPanicError aggregating every rank's original panic value.
//
// A world that is already aborted when Run is called fails immediately
// with a secondary AbortError per local rank: a peer shard can fail
// the current phase (and propagate its abort over the wire) before
// this shard's Run has even started, and that race must surface as
// the same transport-only failure the caller's fallback path already
// handles. Nothing clears the abort: the caller leaves the wire for
// good after its first failure.
func (w *World) Run(body func(r *Rank)) {
	if w.aborted.Load() {
		var agg RunPanicError
		for _, id := range w.local {
			agg.Panics = append(agg.Panics, RankPanic{
				Rank:  id,
				Value: &AbortError{Cause: w.abortCause()},
				Stack: debug.Stack(),
			})
		}
		panic(&agg)
	}
	var wg sync.WaitGroup
	panics := make([]*RankPanic, len(w.local))
	wg.Add(len(w.local))
	for i, id := range w.local {
		go func(slot, id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[slot] = &RankPanic{Rank: id, Value: p, Stack: debug.Stack()}
					// Wake ranks blocked on this one so the Run joins
					// instead of deadlocking.
					w.abort(fmt.Sprintf("rank %d panicked: %v", id, p), false)
				}
			}()
			body(&Rank{world: w, id: id})
		}(i, id)
	}
	wg.Wait()
	var agg RunPanicError
	for _, p := range panics {
		if p != nil {
			agg.Panics = append(agg.Panics, *p)
		}
	}
	if len(agg.Panics) > 0 {
		panic(&agg)
	}
}

// abort wakes every blocked local rank (they panic with AbortError)
// and, unless the abort itself arrived over the wire, asks the
// transport to propagate it to peer shards. First cause wins.
func (w *World) abort(cause string, fromWire bool) {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	w.cause.Store(cause)
	for _, dst := range w.local {
		for _, box := range w.boxes[dst] {
			box.wake()
		}
	}
	w.bar.wake()
	if !fromWire {
		w.tr.Abort(cause)
	}
}

// AbortFromWire aborts the world on behalf of a remote shard (called
// by transports from their receive path).
func (w *World) AbortFromWire(cause string) { w.abort(cause, true) }

// Deliver places a transported message into the destination rank's
// mailbox; the transport's receive path calls it. The payload's
// ownership passes to the mailbox.
func (w *World) Deliver(src, dst, tag int, data []float64) {
	if src < 0 || src >= w.n || dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("mpx.Deliver: bad endpoints %d -> %d", src, dst))
	}
	w.boxes[dst][src].put(message{tag: tag, data: data})
}

// abortCause returns the recorded cause ("" when not aborted).
func (w *World) abortCause() string {
	if c, ok := w.cause.Load().(string); ok {
		return c
	}
	return ""
}

// Rank is one process of the world, valid only inside Run's body.
type Rank struct {
	world *World
	id    int
}

// ID returns the rank index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.n }

// Send delivers data to rank `to` under the given tag. The slice is
// copied (or serialised) before Send returns; Send never blocks.
// Sending to oneself is allowed. Tags must be >= 0.
func (r *Rank) Send(to, tag int, data []float64) {
	if tag < 0 {
		panic(fmt.Sprintf("mpx.Send: negative tag %d", tag))
	}
	w := r.world
	if to < 0 || to >= w.n {
		panic(fmt.Sprintf("mpx.Send: bad destination %d", to))
	}
	if w.shardOf[to] != w.self {
		if err := w.tr.Send(r.id, to, tag, data); err != nil {
			panic(&TransportError{Src: r.id, Dst: to, Tag: tag, Err: err})
		}
		return
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	w.boxes[to][r.id].put(message{tag: tag, data: cp})
}

// Recv blocks until a message with the given tag arrives from rank
// `from` and returns its payload. Messages from the same source with
// other tags are queued, not lost. Tags must be >= 0.
func (r *Rank) Recv(from, tag int) []float64 {
	if tag < 0 {
		panic(fmt.Sprintf("mpx.Recv: negative tag %d", tag))
	}
	if from < 0 || from >= r.world.n {
		panic(fmt.Sprintf("mpx.Recv: bad source %d", from))
	}
	return r.world.boxes[r.id][from].take(tag)
}

// Barrier blocks until every locally hosted rank has entered it.
func (r *Rank) Barrier() { r.world.bar.await() }

// message is one queued transfer.
type message struct {
	tag  int
	data []float64
}

// smallQueueCap is the backing-array size a drained mailbox keeps; a
// queue that grew beyond it during a burst releases the array when it
// drains, so long soak runs stop pinning burst-sized buffers.
const smallQueueCap = 8

// mailbox is an unbounded (src → dst) queue with tag matching.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	w       *World
}

func newMailbox(w *World) *mailbox {
	m := &mailbox{w: w}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.pending = append(m.pending, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) take(tag int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.pending {
			if m.pending[i].tag != tag {
				continue
			}
			data := m.pending[i].data
			// Compact and zero the vacated tail slot: the shift alone
			// would leave a duplicate tail entry whose payload stays
			// reachable through the backing array forever.
			copy(m.pending[i:], m.pending[i+1:])
			last := len(m.pending) - 1
			m.pending[last] = message{}
			m.pending = m.pending[:last]
			if last == 0 && cap(m.pending) > smallQueueCap {
				m.pending = nil
			}
			return data
		}
		if m.w.aborted.Load() {
			panic(&AbortError{Cause: m.w.abortCause()})
		}
		m.cond.Wait()
	}
}

// wake broadcasts under the lock so a rank between its abort check
// and cond.Wait cannot miss the wakeup.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// barrier is a reusable counting barrier over the world's local ranks.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	w     *World
	n     int
	count int
	gen   int
}

func newBarrier(w *World, n int) *barrier {
	b := &barrier{w: w, n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		if b.w.aborted.Load() {
			panic(&AbortError{Cause: b.w.abortCause()})
		}
		b.cond.Wait()
	}
}

func (b *barrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}
