// Package supervise implements the parent/worker runtime for
// supervised multi-process runs: a supervisor process spawns one
// worker OS process per processor group, each hosting its shard of
// the engine behind an mpx.TCPEndpoint, and restarts crashed workers
// from their latest durable checkpoint generation.
//
// The control plane is a localhost TCP rendezvous socket carrying
// newline-delimited JSON messages: workers announce themselves
// (hello), receive the peer address map (peers), report step
// completion and liveness (step, hb), and deliver their final result
// (result). Crash detection is two-pronged — the worker process
// exiting before its result, and a control-channel heartbeat miss
// (a SIGSTOPped or wedged worker never exits, but goes silent) — and
// both feed the supervisor's machine.Membership tracker through the
// same Crash/BeginRejoin/CompleteRejoin path scripted processor
// failures use inside the engine.
//
// Determinism contract: every worker replicates the engine's control
// plane, so every completed worker reports the same Result
// fingerprint, and a run with crashed-and-restarted workers completes
// byte-identical to the fault-free run. Crash timing is wall-clock,
// which is exactly why it must never influence a worker's balancing
// decisions — a failed wire phase detaches the worker onto the
// in-memory data path (identical virtual-time charging) instead of
// feeding evidence into its balancer.
package supervise

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
)

// maxControlLine caps one control message. A result — the largest — is
// a few hundred bytes; a peer that sends this much without a newline is
// not speaking the protocol, and must not grow the supervisor's heap.
const maxControlLine = 64 << 10

// Control message types.
const (
	// MsgHello is the worker's first message: shard id, pid, and (for
	// attached workers) its wire listen address.
	MsgHello = "hello"
	// MsgPeers is the supervisor's rendezvous broadcast: shard → wire
	// address for every attached worker.
	MsgPeers = "peers"
	// MsgStep reports one completed level-0 step.
	MsgStep = "step"
	// MsgHb is a liveness beacon on the control channel.
	MsgHb = "hb"
	// MsgResult delivers the finished run: fingerprint plus full
	// printed output.
	MsgResult = "result"
)

// Msg is one control-channel message (a JSON object per line).
type Msg struct {
	Type        string         `json:"type"`
	Shard       int            `json:"shard"`
	PID         int            `json:"pid,omitempty"`
	Addr        string         `json:"addr,omitempty"`
	Peers       map[int]string `json:"peers,omitempty"`
	Step        int            `json:"step"`
	Fingerprint string         `json:"fingerprint,omitempty"`
	Output      string         `json:"output,omitempty"`
}

// controlConn wraps one control connection with serialised JSON
// writes and line-buffered reads. drained closes once the reader has
// consumed the connection to its end — the supervisor waits on it
// before ruling a worker exit a crash, because a finished worker's
// result may still sit buffered ahead of the EOF.
type controlConn struct {
	c       net.Conn
	r       *bufio.Reader
	mu      sync.Mutex
	drained chan struct{}
}

func newControlConn(c net.Conn) *controlConn {
	return &controlConn{c: c, r: bufio.NewReaderSize(c, maxControlLine), drained: make(chan struct{})}
}

func (cc *controlConn) send(m Msg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, err = cc.c.Write(b)
	return err
}

func (cc *controlConn) recv() (Msg, error) {
	// The line is read in place: the reader's buffer is the cap.
	line, err := cc.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return Msg{}, fmt.Errorf("supervise: control line longer than %d bytes", maxControlLine)
	}
	if err != nil {
		return Msg{}, err
	}
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		return Msg{}, err
	}
	return m, nil
}
