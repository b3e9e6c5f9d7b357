package mpx

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireFault injects deterministic send failures into a TCP transport:
// DropSend is consulted with the per-(src, dst) offer index — a
// monotone count of send attempts, never reset — so a pure function
// of (src, dst, n) yields the same fates on every run.
type WireFault interface {
	DropSend(src, dst int, n uint64) bool
}

// connWait bounds how long a send waits for the peer connection to
// finish its handshake (covers the accept-side registration racing
// the first post-dial send), and a handshake itself when no wire
// timeout is configured.
const connWait = 10 * time.Second

// TCPEndpoint carries one shard's traffic over real sockets: it
// listens for peer shards, dials others (convention: the lower shard
// id dials the higher), and exchanges CRC32-framed messages tagged by
// (src, dst, tag, seq). A shard is the one rank its World hosts, so a
// message goes to the shard its destination rank names. The receive path verifies every checksum and
// per-(src, dst) sequence continuity, delivers into the bound sink
// (the shard's World), and propagates aborts. An endpoint is not
// rearmed after a failure: its first recorded error poisons it for
// good, and the caller detaches from the wire.
type TCPEndpoint struct {
	shard int
	ln    net.Listener

	mu       sync.Mutex
	sink     Sink
	conns    map[int]*wireConn
	connCh   chan struct{} // closed+replaced when a conn registers or the endpoint closes
	sendSeq  map[[2]int]uint64
	offerSeq map[[2]int]uint64
	fault    WireFault

	closed atomic.Bool
	done   chan struct{} // closed once, on Close; stops heartbeat senders
	wg     sync.WaitGroup

	errMu    sync.Mutex
	firstErr error // first receive-path failure; poisons the endpoint

	// Wire deadlines (nanoseconds; 0 disables). Reads and writes that
	// exceed them fail the connection instead of blocking a phase
	// forever; heartbeat frames every hbIval keep idle-but-alive
	// connections under the read deadline.
	readTO, writeTO, hbIval atomic.Int64

	framesSent, bytesSent atomic.Int64
	timeouts              atomic.Int64
}

// wireConn is one peer connection with serialised writes. hb marks a
// running heartbeat sender (guarded by the endpoint's mu). wbuf is the
// connection's data-frame buffer, encoded into and written out under
// mu, so a send allocates nothing once it has grown to the largest
// message.
type wireConn struct {
	peer int
	hb   bool
	mu   sync.Mutex
	c    net.Conn
	wbuf []byte
}

var errEndpointClosed = errors.New("mpx: endpoint closed")

// ListenTCP opens a shard endpoint on addr (use "127.0.0.1:0" for an
// ephemeral localhost port) and starts accepting peer connections.
// The endpoint routes every message to the shard its destination rank
// names, so shardOf must be the identity: it is checked at the
// endpoint's own shard, and NewShardWorld checks every rank.
func ListenTCP(shard int, addr string, shardOf func(rank int) int) (*TCPEndpoint, error) {
	if shardOf == nil || shardOf(shard) != shard {
		return nil, fmt.Errorf("mpx.ListenTCP: shardOf must be the identity: a shard hosts one rank")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpx.ListenTCP: %w", err)
	}
	e := &TCPEndpoint{
		shard:    shard,
		ln:       ln,
		conns:    make(map[int]*wireConn),
		connCh:   make(chan struct{}),
		sendSeq:  make(map[[2]int]uint64),
		offerSeq: make(map[[2]int]uint64),
		done:     make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's listen address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Shard returns the endpoint's shard id.
func (e *TCPEndpoint) Shard() int { return e.shard }

// Bind attaches the sink (the shard's World) that receives delivered
// messages. Must be called before any peer traffic arrives.
func (e *TCPEndpoint) Bind(s Sink) {
	e.mu.Lock()
	e.sink = s
	e.mu.Unlock()
}

// SetFault installs a deterministic send-failure injector.
func (e *TCPEndpoint) SetFault(f WireFault) {
	e.mu.Lock()
	e.fault = f
	e.mu.Unlock()
}

// SetWireTimeout bounds every wire read and write by d and starts a
// heartbeat sender (at d/3) on each subsequently registered
// connection, so a dead or stopped peer surfaces as a transport fault
// within d instead of blocking a phase forever. Call it before
// dialing or accepting peers; d <= 0 disables deadlines. Heartbeat
// frames are liveness-only: they are excluded from the frame/byte
// statistics so wall-clock timing never leaks into reported counters.
func (e *TCPEndpoint) SetWireTimeout(d time.Duration) {
	if d <= 0 {
		e.readTO.Store(0)
		e.writeTO.Store(0)
		e.hbIval.Store(0)
		return
	}
	e.readTO.Store(int64(d))
	e.writeTO.Store(int64(d))
	hb := d / 3
	if hb < time.Millisecond {
		hb = time.Millisecond
	}
	e.hbIval.Store(int64(hb))
	// A peer with a static address may have connected before the
	// timeout was configured; those connections need senders too.
	e.mu.Lock()
	for _, wc := range e.conns {
		e.startHeartbeatLocked(wc, hb)
	}
	e.mu.Unlock()
}

// startHeartbeatLocked starts one connection's heartbeat sender at
// most once. Caller holds e.mu.
func (e *TCPEndpoint) startHeartbeatLocked(wc *wireConn, interval time.Duration) {
	if wc.hb || e.closed.Load() {
		return
	}
	wc.hb = true
	e.wg.Add(1)
	go e.heartbeatLoop(wc, interval)
}

// Timeouts returns how many wire reads or writes exceeded the
// configured deadline.
func (e *TCPEndpoint) Timeouts() int64 { return e.timeouts.Load() }

// Dial connects to a peer shard and completes the handshake. Use the
// lower-dials-higher convention so each pair has exactly one
// connection.
func (e *TCPEndpoint) Dial(peer int, addr string) error {
	e.mu.Lock()
	_, dup := e.conns[peer]
	e.mu.Unlock()
	if dup {
		return fmt.Errorf("mpx: already connected to shard %d", peer)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("mpx: dial shard %d: %w", peer, err)
	}
	c.SetDeadline(time.Now().Add(e.handshakeTimeout()))
	if err := writeHandshake(c, e.shard); err != nil {
		c.Close()
		return fmt.Errorf("mpx: handshake with shard %d: %w", peer, err)
	}
	got, err := readHandshake(c)
	if err != nil {
		c.Close()
		return fmt.Errorf("mpx: handshake with shard %d: %w", peer, err)
	}
	if got != peer {
		c.Close()
		return fmt.Errorf("mpx: dialed shard %d but peer identifies as %d", peer, got)
	}
	c.SetDeadline(time.Time{})
	e.register(peer, c)
	return nil
}

// handshakeTimeout bounds one connection's handshake: the configured
// wire timeout, or connWait when there is none.
func (e *TCPEndpoint) handshakeTimeout() time.Duration {
	if rt := time.Duration(e.readTO.Load()); rt > 0 {
		return rt
	}
	return connWait
}

// DialRetry dials a peer with exponential backoff until the budget
// elapses, so shard startup order doesn't matter. An already
// established connection (the peer dialed us first) counts as
// success.
func (e *TCPEndpoint) DialRetry(peer int, addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	pause := 25 * time.Millisecond
	for {
		e.mu.Lock()
		_, ok := e.conns[peer]
		e.mu.Unlock()
		if ok {
			return nil
		}
		err := e.Dial(peer, addr)
		if err == nil {
			return nil
		}
		if e.closed.Load() {
			return errEndpointClosed
		}
		if time.Now().Add(pause).After(deadline) {
			return fmt.Errorf("mpx: shard %d unreachable at %s after %v: %w", peer, addr, budget, err)
		}
		time.Sleep(pause)
		if pause *= 2; pause > 2*time.Second {
			pause = 2 * time.Second
		}
	}
}

// acceptLoop admits peer connections, each on its own goroutine so a
// dialer that connects and stays silent holds up no later peer.
func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go e.admit(c)
	}
}

// admit completes one accepted connection's handshake — read the
// peer's, answer with ours, register — within the handshake deadline.
func (e *TCPEndpoint) admit(c net.Conn) {
	defer e.wg.Done()
	c.SetDeadline(time.Now().Add(e.handshakeTimeout()))
	peer, err := readHandshake(c)
	if err == nil {
		err = writeHandshake(c, e.shard)
	}
	if err != nil {
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	e.register(peer, c)
}

// register records the peer connection, wakes waiting senders, and
// starts its read loop. A duplicate (both sides dialed) is rejected.
func (e *TCPEndpoint) register(peer int, c net.Conn) {
	e.mu.Lock()
	if _, dup := e.conns[peer]; dup || e.closed.Load() {
		e.mu.Unlock()
		c.Close()
		return
	}
	wc := &wireConn{peer: peer, c: c}
	e.conns[peer] = wc
	close(e.connCh)
	e.connCh = make(chan struct{})
	if hb := time.Duration(e.hbIval.Load()); hb > 0 {
		e.startHeartbeatLocked(wc, hb)
	}
	e.mu.Unlock()
	e.wg.Add(1)
	go e.readLoop(wc)
}

// conn returns the peer connection, waiting briefly for a handshake
// still in flight.
func (e *TCPEndpoint) conn(peer int) (*wireConn, error) {
	deadline := time.Now().Add(connWait)
	for {
		e.mu.Lock()
		if c, ok := e.conns[peer]; ok {
			e.mu.Unlock()
			return c, nil
		}
		ch := e.connCh
		e.mu.Unlock()
		if e.closed.Load() {
			return nil, errEndpointClosed
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("mpx: no connection to shard %d", peer)
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// Send frames and writes one message to shard dst. The
// fault injector is consulted first (against the offer index, which
// advances even for dropped messages, keeping fates deterministic);
// the wire sequence number advances only for frames actually written,
// preserving receive-side continuity.
func (e *TCPEndpoint) Send(src, dst, tag int, data []float64) error {
	if err := e.Err(); err != nil {
		return err
	}
	if e.closed.Load() {
		return errEndpointClosed
	}
	key := [2]int{src, dst}
	e.mu.Lock()
	offer := e.offerSeq[key]
	e.offerSeq[key] = offer + 1
	fault := e.fault
	e.mu.Unlock()
	if fault != nil && fault.DropSend(src, dst, offer) {
		return fmt.Errorf("mpx: injected wire fault dropped %d -> %d (offer %d)", src, dst, offer)
	}
	c, err := e.conn(dst)
	if err != nil {
		return err
	}
	e.mu.Lock()
	seq := e.sendSeq[key]
	e.sendSeq[key] = seq + 1
	e.mu.Unlock()
	c.mu.Lock()
	c.wbuf = appendDataFrame(c.wbuf[:0], src, dst, tag, seq, data)
	n := len(c.wbuf)
	werr := e.writeLocked(c, c.wbuf)
	c.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("mpx: write to shard %d: %w", dst, werr)
	}
	e.framesSent.Add(1)
	e.bytesSent.Add(int64(n))
	return nil
}

// writeFrame writes one framed message under the connection's write
// lock.
func (e *TCPEndpoint) writeFrame(wc *wireConn, frame []byte) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return e.writeLocked(wc, frame)
}

// writeLocked writes one framed message, applying the configured
// write deadline; the caller holds wc.mu. Deadline expiries are
// counted before the error is returned.
func (e *TCPEndpoint) writeLocked(wc *wireConn, frame []byte) error {
	if wt := time.Duration(e.writeTO.Load()); wt > 0 {
		wc.c.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := wc.c.Write(frame)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			e.timeouts.Add(1)
		}
	}
	return err
}

// heartbeatLoop keeps one connection's traffic under the peer's read
// deadline while the endpoint is otherwise idle. A heartbeat that
// cannot be written within the write deadline poisons the endpoint:
// the peer is wedged, and blocked ranks must fail fast.
func (e *TCPEndpoint) heartbeatLoop(wc *wireConn, interval time.Duration) {
	defer e.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
		}
		if err := e.writeFrame(wc, encodeHeartbeatFrame()); err != nil {
			if e.closed.Load() {
				return
			}
			e.poison(fmt.Errorf("mpx: heartbeat to shard %d: %w", wc.peer, err))
			return
		}
	}
}

// Abort broadcasts an abort notification to every peer, best-effort.
func (e *TCPEndpoint) Abort(cause string) {
	frame := encodeAbortFrame(cause)
	e.mu.Lock()
	conns := make([]*wireConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		e.writeFrame(c, frame)
	}
}

// readLoop drains one peer connection: verify framing and sequence
// continuity, deliver the frames.
func (e *TCPEndpoint) readLoop(wc *wireConn) {
	defer e.wg.Done()
	// One payload buffer for the connection's lifetime: decodeFrame
	// copies everything it keeps, so each frame may overwrite the last.
	var payload []byte
	// Every (src, dst) pair on this connection has its source on the
	// peer shard, so the connection's reader owns their sequence.
	recvSeq := make(map[[2]int]uint64)
	for {
		if rt := time.Duration(e.readTO.Load()); rt > 0 {
			wc.c.SetReadDeadline(time.Now().Add(rt))
		}
		var err error
		payload, err = readWireFrame(wc.c, payload)
		if err != nil {
			if e.closed.Load() {
				return // orderly teardown
			}
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				e.timeouts.Add(1)
				e.poison(fmt.Errorf("mpx: wire timeout: no frame from shard %d within %v",
					wc.peer, time.Duration(e.readTO.Load())))
			case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed):
				// A peer that hangs up while we are live is a crashed
				// peer, not an orderly teardown: blocked ranks must be
				// woken, not left hanging.
				e.poison(fmt.Errorf("mpx: connection to shard %d lost: %w", wc.peer, err))
			default:
				e.poison(fmt.Errorf("mpx: receive on shard %d: %w", e.shard, err))
			}
			return
		}
		e.mu.Lock()
		sink := e.sink
		e.mu.Unlock()
		var buffer func(int) []float64
		if sink != nil {
			buffer = sink.Buffer
		}
		msg, err := decodeFrame(payload, buffer)
		if err != nil {
			e.poison(err)
			return
		}
		if msg.kind == frameHeartbeat {
			// Its arrival already refreshed the read deadline; nothing to
			// deliver, and liveness beacons stay out of the frame counts.
			continue
		}
		if sink == nil {
			e.poison(fmt.Errorf("mpx: frame arrived on shard %d before Bind", e.shard))
			return
		}
		switch msg.kind {
		case frameAbort:
			sink.AbortFromWire(msg.cause)
		case frameData:
			key := [2]int{msg.src, msg.dst}
			expect := recvSeq[key]
			if msg.seq != expect {
				e.poison(fmt.Errorf("mpx: sequence break %d -> %d: got %d, want %d",
					msg.src, msg.dst, msg.seq, expect))
				return
			}
			recvSeq[key] = expect + 1
			sink.Deliver(msg.src, msg.dst, msg.tag, msg.data)
		}
	}
}

// poison records the first receive-path failure, aborts the bound
// world so blocked ranks fail fast instead of hanging, and passes the
// abort on to the peers: their ranks may be waiting on sends this
// shard's ranks will now never make, and a world aborted from the wire
// does not propagate the abort itself.
func (e *TCPEndpoint) poison(err error) {
	e.errMu.Lock()
	first := e.firstErr == nil
	if first {
		e.firstErr = err
	}
	e.errMu.Unlock()
	e.mu.Lock()
	sink := e.sink
	e.mu.Unlock()
	if sink != nil {
		sink.AbortFromWire(err.Error())
	}
	if first {
		e.Abort(err.Error())
	}
}

// Err returns the first receive-path failure (nil if none).
func (e *TCPEndpoint) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// Stats returns frames and bytes sent over the wire.
func (e *TCPEndpoint) Stats() (frames, bytes int64) {
	return e.framesSent.Load(), e.bytesSent.Load()
}

// Close shuts the listener and every connection down and joins the
// endpoint's goroutines.
func (e *TCPEndpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.done)
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.c.Close()
	}
	close(e.connCh)
	e.connCh = make(chan struct{})
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}
