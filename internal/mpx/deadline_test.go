package mpx

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSink captures wire aborts for assertions.
type recordSink struct {
	mu     sync.Mutex
	aborts []string
}

func (r *recordSink) Deliver(src, dst, tag int, data []float64) {}

func (r *recordSink) AbortFromWire(cause string) {
	r.mu.Lock()
	r.aborts = append(r.aborts, cause)
	r.mu.Unlock()
}

func (r *recordSink) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.aborts)
}

// pairEndpoints connects two endpoints (0 dials 1) with the given wire
// timeouts and stub sinks, returning them plus a cleanup.
func pairEndpoints(t *testing.T, to0, to1 time.Duration) (*TCPEndpoint, *TCPEndpoint, *recordSink, *recordSink) {
	t.Helper()
	shardOf := func(rank int) int { return rank % 2 }
	a, err := ListenTCP(0, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(1, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.SetWireTimeout(to0)
	b.SetWireTimeout(to1)
	sa, sb := &recordSink{}, &recordSink{}
	a.Bind(sa)
	b.Bind(sb)
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b, sa, sb
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestWireTimeoutPoisonsSilentPeer pins the read-deadline path: a peer
// that sends nothing — no data, no heartbeats (its own timeout is 0,
// so it runs no heartbeat sender) — must poison the endpoint within
// the configured timeout, waking anything blocked on a receive.
func TestWireTimeoutPoisonsSilentPeer(t *testing.T) {
	const d = 150 * time.Millisecond
	a, _, sa, _ := pairEndpoints(t, d, 0)
	waitFor(t, 10*d, func() bool { return a.Err() != nil }, "silent peer never timed out")
	if !strings.Contains(a.Err().Error(), "wire timeout") {
		t.Fatalf("expected a wire timeout error, got %v", a.Err())
	}
	if a.Timeouts() == 0 {
		t.Fatal("timeout not counted")
	}
	if sa.count() == 0 {
		t.Fatal("timeout did not abort the bound sink")
	}
}

// TestPoisonAbortsPeer: an endpoint that poisons itself passes the
// abort on. The peer's ranks may wait on sends this shard's aborted
// ranks will never make, and nothing else would wake them: the peer
// still hears from this endpoint, so its own reader never times out.
func TestPoisonAbortsPeer(t *testing.T) {
	const d = 150 * time.Millisecond
	a, _, _, sb := pairEndpoints(t, d, 0)
	waitFor(t, 10*d, func() bool { return a.Err() != nil }, "silent peer never timed out")
	waitFor(t, 10*d, func() bool { return sb.count() > 0 }, "the poisoned endpoint did not abort its peer")
	sb.mu.Lock()
	cause := sb.aborts[0]
	sb.mu.Unlock()
	if !strings.Contains(cause, "wire timeout") {
		t.Fatalf("peer aborted with %q, want the poisoning wire timeout", cause)
	}
}

// TestHeartbeatsPreventFalseTimeout pins the liveness protocol: two
// idle endpoints that both heartbeat must sit well past the timeout
// without either side poisoning.
func TestHeartbeatsPreventFalseTimeout(t *testing.T) {
	const d = 200 * time.Millisecond
	a, b, sa, sb := pairEndpoints(t, d, d)
	time.Sleep(5 * d)
	if err := a.Err(); err != nil {
		t.Fatalf("endpoint 0 poisoned while idle: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("endpoint 1 poisoned while idle: %v", err)
	}
	if n := a.Timeouts() + b.Timeouts(); n != 0 {
		t.Fatalf("%d spurious timeouts on an idle heartbeating pair", n)
	}
	if sa.count()+sb.count() != 0 {
		t.Fatal("spurious aborts on an idle heartbeating pair")
	}
	// Heartbeats are liveness-only: nothing may leak into the
	// deterministic frame statistics.
	if f, by := a.Stats(); f != 0 || by != 0 {
		t.Fatalf("heartbeats counted as data frames: %d frames, %d bytes", f, by)
	}
}

// TestPeerLossPoisonsWithoutDeadline pins the EOF path: a peer that
// hangs up while we are live is a crashed peer, and the endpoint must
// poison immediately — no deadline configured, no hang.
func TestPeerLossPoisonsWithoutDeadline(t *testing.T) {
	a, b, sa, _ := pairEndpoints(t, 0, 0)
	b.Close()
	waitFor(t, 5*time.Second, func() bool { return a.Err() != nil }, "peer loss never detected")
	if !strings.Contains(a.Err().Error(), "connection to shard 1 lost") {
		t.Fatalf("expected a connection-lost error, got %v", a.Err())
	}
	if sa.count() == 0 {
		t.Fatal("peer loss did not abort the bound sink")
	}
}

// TestDialRetryWaitsForLateListener pins the backoff dial: the target
// endpoint comes up only after a delay, and DialRetry must connect
// anyway — shard startup order must not matter.
func TestDialRetryWaitsForLateListener(t *testing.T) {
	shardOf := func(rank int) int { return rank % 2 }
	a, err := ListenTCP(0, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	// Reserve an address, release it, bring the real endpoint up on it
	// after a delay.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var bmu sync.Mutex
	var b *TCPEndpoint
	go func() {
		time.Sleep(300 * time.Millisecond)
		ep, err := ListenTCP(1, addr, shardOf)
		if err != nil {
			return // port raced away; DialRetry will fail the test below
		}
		ep.Bind(&recordSink{})
		bmu.Lock()
		b = ep
		bmu.Unlock()
	}()
	t.Cleanup(func() {
		bmu.Lock()
		defer bmu.Unlock()
		if b != nil {
			b.Close()
		}
	})
	if err := a.DialRetry(1, addr, 10*time.Second); err != nil {
		t.Fatalf("DialRetry never reached the late listener: %v", err)
	}
}

// TestDialRetryGivesUp pins the bounded budget: a peer that never
// appears must produce an error, not an infinite loop.
func TestDialRetryGivesUp(t *testing.T) {
	shardOf := func(rank int) int { return rank % 2 }
	a, err := ListenTCP(0, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	if err := a.DialRetry(1, addr, 400*time.Millisecond); err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("DialRetry overshot its budget: %v", e)
	}
}

// TestSilentDialerBlocksNobody: a connection that completes the TCP
// handshake and then says nothing used to park the accept loop in its
// first read for good, so no later peer could ever register. It now
// holds one goroutine until the handshake deadline, is dropped, and a
// peer that dials meanwhile is admitted at once.
func TestSilentDialerBlocksNobody(t *testing.T) {
	const d = 300 * time.Millisecond
	shardOf := func(rank int) int { return rank % 2 }
	a, err := ListenTCP(0, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(1, "127.0.0.1:0", shardOf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.SetWireTimeout(d)
	b.SetWireTimeout(d)
	a.Bind(&recordSink{})
	b.Bind(&recordSink{})

	silent, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	if err := b.Dial(0, a.Addr()); err != nil {
		t.Fatalf("second peer's handshake failed behind a silent dialer: %v", err)
	}
	if waited := time.Since(start); waited >= d {
		t.Fatalf("second peer waited %v, the silent dialer's whole deadline", waited)
	}
	// The silent connection is hung up on once its deadline passes.
	silent.SetReadDeadline(time.Now().Add(20 * d))
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent dialer was not dropped at the handshake deadline: read returned %v", err)
	}
}

// TestDialHandshakeHasDeadline is the dial side of the same hole: a
// listener that accepts and never answers fails the dial at the
// deadline instead of hanging it.
func TestDialHandshakeHasDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := ListenTCP(0, "127.0.0.1:0", func(rank int) int { return rank % 2 })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetWireTimeout(100 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- a.Dial(1, ln.Addr().String()) }()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("dial of a mute listener returned %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial of a mute listener is still waiting for its handshake")
	}
}
