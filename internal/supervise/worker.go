package supervise

import (
	"fmt"
	"net"
	"time"

	"samrdlb/internal/mpx"
)

// WorkerConfig describes one worker process's place in a supervised
// run.
type WorkerConfig struct {
	// Shard is the processor group this worker hosts.
	Shard int
	// ControlAddr is the supervisor's rendezvous socket.
	ControlAddr string
	// ShardOf maps a rank to its hosting shard.
	ShardOf func(rank int) int
	// WireTimeout bounds wire reads/writes and paces heartbeats
	// (0 disables deadlines; control heartbeats then default to 1s).
	WireTimeout time.Duration
	// Detached starts the worker without a wire — the restart path
	// after a crash, when the surviving peers have already detached.
	Detached bool
	// Build constructs the engine around the endpoint (nil when
	// detached) and returns the closure that runs it. It is called
	// BEFORE the worker announces itself, so the engine's sink is
	// bound before any peer learns this worker's address — a peer
	// frame can never arrive ahead of the bind. The returned run
	// closure must call reportStep after every completed level-0 step
	// (it drives the supervisor's kill schedule and membership
	// bookkeeping) and returns the Result fingerprint (Result.Identity())
	// plus the full printed output.
	Build func(ep *mpx.TCPEndpoint) (func(reportStep func(step int)) (fingerprint, output string, err error), error)
}

// RunWorker executes one worker process end-to-end: rendezvous with
// the supervisor, bring up the wire to the peer workers, run the
// engine, and deliver the result. It returns once the result has been
// sent (or with the first fatal setup error).
func RunWorker(cfg WorkerConfig) error {
	if cfg.Build == nil || cfg.ShardOf == nil {
		return fmt.Errorf("supervise: WorkerConfig needs Build and ShardOf")
	}
	conn, err := net.Dial("tcp", cfg.ControlAddr)
	if err != nil {
		return fmt.Errorf("supervise: worker %d: control dial: %w", cfg.Shard, err)
	}
	defer conn.Close()
	cc := newControlConn(conn)

	var ep *mpx.TCPEndpoint
	hello := Msg{Type: MsgHello, Shard: cfg.Shard}
	if !cfg.Detached {
		ep, err = mpx.ListenTCP(cfg.Shard, "127.0.0.1:0", cfg.ShardOf)
		if err != nil {
			return fmt.Errorf("supervise: worker %d: %w", cfg.Shard, err)
		}
		ep.SetWireTimeout(cfg.WireTimeout)
		hello.Addr = ep.Addr()
	}
	run, err := cfg.Build(ep)
	if err != nil {
		return fmt.Errorf("supervise: worker %d: build: %w", cfg.Shard, err)
	}
	if err := cc.send(hello); err != nil {
		return fmt.Errorf("supervise: worker %d: hello: %w", cfg.Shard, err)
	}

	if !cfg.Detached {
		// Rendezvous: wait for the peer address map, then dial every
		// higher shard (the lower-dials-higher convention, with backoff —
		// a peer may still be starting). A peer that crashed before
		// rendezvous is simply absent from the map; the first wire phase
		// that needs it times out and detaches this worker.
		peers, err := waitPeers(cc, rendezvousBudget(cfg.WireTimeout))
		if err != nil {
			return fmt.Errorf("supervise: worker %d: rendezvous: %w", cfg.Shard, err)
		}
		for shard, addr := range peers {
			if shard <= cfg.Shard {
				continue
			}
			if err := ep.DialRetry(shard, addr, rendezvousBudget(cfg.WireTimeout)); err != nil {
				return fmt.Errorf("supervise: worker %d: %w", cfg.Shard, err)
			}
		}
	}

	// Control-channel liveness: heartbeats at a third of the wire
	// timeout, so a SIGSTOPped worker misses the supervisor's read
	// deadline at the same cadence its peers' wire deadlines fire.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		ival := cfg.WireTimeout / 3
		if ival <= 0 {
			ival = time.Second
		}
		t := time.NewTicker(ival)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
			}
			// A failed heartbeat means the supervisor is gone; the run
			// itself keeps going, so the error is ignorable.
			cc.send(Msg{Type: MsgHb, Shard: cfg.Shard})
		}
	}()

	reportStep := func(step int) {
		cc.send(Msg{Type: MsgStep, Shard: cfg.Shard, Step: step})
	}
	fingerprint, output, err := run(reportStep)
	if err != nil {
		return fmt.Errorf("supervise: worker %d: run: %w", cfg.Shard, err)
	}
	if err := cc.send(Msg{Type: MsgResult, Shard: cfg.Shard, Fingerprint: fingerprint, Output: output}); err != nil {
		return fmt.Errorf("supervise: worker %d: result: %w", cfg.Shard, err)
	}
	return nil
}

// rendezvousBudget bounds startup waits: generous relative to the
// wire timeout, but never unbounded.
func rendezvousBudget(wireTimeout time.Duration) time.Duration {
	b := 30 * time.Second
	if 10*wireTimeout > b {
		b = 10 * wireTimeout
	}
	return b
}

// waitPeers reads control messages until the peers broadcast arrives.
func waitPeers(cc *controlConn, budget time.Duration) (map[int]string, error) {
	cc.c.SetReadDeadline(time.Now().Add(budget))
	defer cc.c.SetReadDeadline(time.Time{})
	for {
		m, err := cc.recv()
		if err != nil {
			return nil, err
		}
		if m.Type == MsgPeers {
			return m.Peers, nil
		}
	}
}
