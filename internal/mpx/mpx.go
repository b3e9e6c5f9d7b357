// Package mpx is a minimal message-passing runtime in the style of
// MPI, the substrate ENZO uses for inter-processor communication. A
// World hosts one rank of a communicator over n ranks, with
// point-to-point tagged sends and receives, and reaches the other
// ranks through a Transport (TCPEndpoint carries it over real
// sockets). A rank is a processor group: the paper's processors share
// memory inside a group and exchange messages only between groups, so
// what one group's processors move among themselves never becomes a
// message.
//
// Sends are buffered and never block (mailboxes grow as needed), so
// bulk-synchronous exchange patterns — every rank posting all its
// sends, then draining its receives — cannot deadlock. Receives match
// (source, tag) pairs and tolerate out-of-order arrival; the transport
// preserves per-connection order, so messages of one tag from one
// source arrive in the order they were sent.
package mpx

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// World hosts one rank of a communicator over n ranks.
type World struct {
	n     int
	self  int
	boxes []*mailbox // boxes[src]: what rank src sent this one
	tr    Transport

	aborted atomic.Bool
	cause   atomic.Value // string; first abort cause wins

	// spares are payloads the rank released, for the transport to
	// decode later messages into: at most n, the most one exchange
	// receives.
	spareMu sync.Mutex
	spares  [][]float64
}

// NewShardWorld creates the world hosting rank self of a communicator
// over n ranks; sends to the others travel over tr, and their sends
// arrive via Deliver (the transport calls it from its receive path).
// A world hosts exactly one rank, so shardOf — which rank hosts which —
// must be the identity; any other mapping panics. The caller joins the
// worlds between phases.
func NewShardWorld(n int, shardOf func(rank int) int, self int, tr Transport) *World {
	if n <= 0 {
		panic("mpx.NewShardWorld: need at least one rank")
	}
	if shardOf == nil || tr == nil {
		panic("mpx.NewShardWorld: shardOf and transport are required")
	}
	if self < 0 || self >= n {
		panic(fmt.Sprintf("mpx.NewShardWorld: rank %d outside a world of %d", self, n))
	}
	for r := range n {
		if s := shardOf(r); s != r {
			panic(fmt.Sprintf("mpx.NewShardWorld: rank %d maps to shard %d; a world hosts one rank, so shardOf must be the identity", r, s))
		}
	}
	w := &World{n: n, self: self, tr: tr, boxes: make([]*mailbox, n)}
	for src := range w.boxes {
		w.boxes[src] = newMailbox(w)
	}
	return w
}

// RankPanic records one rank's panic with the original value and the
// goroutine stack it unwound.
type RankPanic struct {
	Rank  int
	Value interface{}
	Stack []byte
}

// RunPanicError aggregates rank panics: Run re-raises its rank's as
// one, so callers recover the original value instead of a flattened
// string, and a caller that runs a phase over several worlds merges
// theirs into one.
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

// Run executes body on the hosted rank, on the caller's goroutine. If
// it panics the world aborts: the transport propagates the abort to
// peer worlds, whose blocked ranks wake with an AbortError, and Run
// re-raises a *RunPanicError carrying the original panic value and
// the stack it unwound.
//
// A world that is already aborted when Run is called fails immediately
// with a secondary AbortError: a peer can fail the current phase (and
// propagate its abort over the wire) before this world's Run has even
// started, and that race must surface as the same transport-only
// failure the caller's fallback path already handles. Nothing clears
// the abort: the caller leaves the wire for good after its first
// failure.
func (w *World) Run(body func(r *Rank)) {
	defer func() {
		if p := recover(); p != nil {
			w.abort(fmt.Sprintf("rank %d panicked: %v", w.self, p), false)
			panic(&RunPanicError{Panics: []RankPanic{{Rank: w.self, Value: p, Stack: debug.Stack()}}})
		}
	}()
	if w.aborted.Load() {
		panic(&AbortError{Cause: w.abortCause()})
	}
	body(&Rank{world: w, id: w.self})
}

// abort wakes the rank if it is blocked (it panics with AbortError)
// and, unless the abort itself arrived over the wire, asks the
// transport to propagate it to the peer worlds. First cause wins.
func (w *World) abort(cause string, fromWire bool) {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	w.cause.Store(cause)
	for _, box := range w.boxes {
		box.wake()
	}
	if !fromWire {
		w.tr.Abort(cause)
	}
}

// AbortFromWire aborts the world on behalf of a remote one (called
// by transports from their receive path).
func (w *World) AbortFromWire(cause string) { w.abort(cause, true) }

// Deliver places a transported message into the mailbox of its
// source; the transport's receive path calls it, and dst must be the
// hosted rank. The payload's ownership passes to the mailbox.
func (w *World) Deliver(src, dst, tag int, data []float64) {
	if src < 0 || src >= w.n || dst != w.self {
		panic(fmt.Sprintf("mpx.Deliver: bad endpoints %d -> %d on rank %d", src, dst, w.self))
	}
	w.boxes[src].put(message{tag: tag, data: data})
}

// Buffer returns n values of storage for a payload the transport is
// about to deliver: the smallest released payload that holds n, or a
// new one.
func (w *World) Buffer(n int) []float64 {
	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	best := -1
	for i, s := range w.spares {
		if cap(s) >= n && (best < 0 || cap(s) < cap(w.spares[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	s := w.spares[best]
	last := len(w.spares) - 1
	w.spares[best], w.spares[last] = w.spares[last], nil
	w.spares = w.spares[:last]
	return s[:n]
}

// release keeps a delivered payload for Buffer, evicting the smallest
// spare when n are kept already.
func (w *World) release(data []float64) {
	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	if len(w.spares) < w.n {
		w.spares = append(w.spares, data)
		return
	}
	small := 0
	for i, s := range w.spares {
		if cap(s) < cap(w.spares[small]) {
			small = i
		}
	}
	if cap(data) > cap(w.spares[small]) {
		w.spares[small] = data
	}
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

// Send delivers data to another rank `to` under the given tag through
// the transport, which copies or serialises the slice before Send
// returns; Send never blocks. Tags must be >= 0.
func (r *Rank) Send(to, tag int, data []float64) {
	if tag < 0 {
		panic(fmt.Sprintf("mpx.Send: negative tag %d", tag))
	}
	w := r.world
	if to < 0 || to >= w.n || to == r.id {
		panic(fmt.Sprintf("mpx.Send: bad destination %d from rank %d", to, r.id))
	}
	if err := w.tr.Send(r.id, to, tag, data); err != nil {
		panic(&TransportError{Src: r.id, Dst: to, Tag: tag, Err: err})
	}
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
	return r.world.boxes[from].take(tag)
}

// Release hands back a payload Recv returned, once the rank has
// applied it, so the transport can decode a later message into its
// storage. The rank must not touch data afterwards. A payload never
// released is simply collected.
func (r *Rank) Release(data []float64) { r.world.release(data) }

// message is one queued transfer.
type message struct {
	tag  int
	data []float64
}

// smallQueueCap is the backing-array size a drained mailbox keeps; a
// queue that grew beyond it during a burst releases the array when it
// drains, so long soak runs stop pinning burst-sized buffers.
const smallQueueCap = 8

// mailbox is an unbounded queue from one source, with tag matching.
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
