package supervise

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
)

// Config describes a supervised run.
type Config struct {
	// NumShards is the worker count (one per processor group).
	NumShards int
	// WireTimeout paces liveness: workers heartbeat at a third of it
	// and the supervisor declares a heartbeat miss after twice it
	// (0 falls back to a 10s control deadline).
	WireTimeout time.Duration
	// MaxRestarts bounds restarts per worker (<=0 means 3).
	MaxRestarts int
	// Kills is the scripted chaos schedule: SIGKILL the worker hosting
	// Group once it reports completing step Step.
	Kills []fault.KillPoint
	// Spawn builds the (unstarted) command for one worker process.
	// restart is set for post-crash restarts: the worker must come up
	// without a wire and resume from its latest usable checkpoint
	// generation.
	Spawn func(shard int, controlAddr string, restart bool) *exec.Cmd
	// Membership, when non-nil, receives crash/rejoin evidence: worker
	// death marks its group's processors crashed, a restart begins
	// their rejoin, and the restarted worker's hello completes it —
	// the same path the engine walks for scripted processor failures.
	Membership *machine.Membership
	// ProcsOf maps a shard to its processor ids (required with
	// Membership).
	ProcsOf func(shard int) []int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Report summarises what the supervisor observed.
type Report struct {
	// Restarts counts workers respawned after a crash.
	Restarts int
	// Crashes counts worker deaths before delivering a result.
	Crashes int
	// ScriptedKills counts kill-schedule entries actually fired.
	ScriptedKills int
	// HeartbeatMisses counts workers declared dead for going silent
	// without exiting (and then killed).
	HeartbeatMisses int
	// PermanentFailures counts workers that exhausted their restarts.
	PermanentFailures int
	// Fingerprint is the agreed Result fingerprint (every completed
	// worker must report the same one).
	Fingerprint string
	// Output is the full printed output of the lowest-shard completed
	// worker.
	Output string
	// Completed counts workers that delivered a result.
	Completed int
}

type supervisor struct {
	cfg Config
	ln  net.Listener

	mu         sync.Mutex
	addrs      map[int]string
	helloed    map[int]bool
	conns      map[int]*controlConn
	procs      map[int]*os.Process
	lastStep   map[int]int
	results    map[int]Msg
	failed     map[int]bool
	restarts   map[int]int
	killsFired []bool
	peersSent  bool
	report     Report
	finished   bool
	err        error
	doneCh     chan struct{}
}

// Run executes a supervised run to completion: spawn one worker per
// shard, rendezvous their wire endpoints, restart crashed workers
// from their checkpoints (with exponential backoff), and verify every
// completed worker agreed on the Result fingerprint.
func Run(cfg Config) (Report, error) {
	if cfg.NumShards <= 0 || cfg.Spawn == nil {
		return Report{}, fmt.Errorf("supervise: Config needs NumShards and Spawn")
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Report{}, fmt.Errorf("supervise: control listen: %w", err)
	}
	defer ln.Close()
	s := &supervisor{
		cfg:        cfg,
		ln:         ln,
		addrs:      make(map[int]string),
		helloed:    make(map[int]bool),
		conns:      make(map[int]*controlConn),
		procs:      make(map[int]*os.Process),
		lastStep:   make(map[int]int),
		results:    make(map[int]Msg),
		failed:     make(map[int]bool),
		restarts:   make(map[int]int),
		killsFired: make([]bool, len(cfg.Kills)),
		doneCh:     make(chan struct{}),
	}
	go s.acceptLoop()
	for g := 0; g < cfg.NumShards; g++ {
		if err := s.spawn(g, false); err != nil {
			return s.report, err
		}
	}
	<-s.doneCh
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report, s.err
}

func (s *supervisor) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// spawn starts (or restarts) shard g's worker and its exit watcher.
func (s *supervisor) spawn(g int, restart bool) error {
	cmd := s.cfg.Spawn(g, s.ln.Addr().String(), restart)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("supervise: spawn worker %d: %w", g, err)
	}
	s.mu.Lock()
	s.procs[g] = cmd.Process
	s.mu.Unlock()
	go s.watchExit(g, cmd)
	return nil
}

// watchExit handles one worker process lifetime: a death before the
// result is a crash — fold it into membership evidence and restart
// with exponential backoff, detached and resuming from the latest
// checkpoint generation, until the restart budget is spent.
func (s *supervisor) watchExit(g int, cmd *exec.Cmd) {
	cmd.Wait()
	// An orderly worker exits right after writing its result, and the
	// process death can be observed before the result is read. Let the
	// control handler drain the connection first — TCP delivers any
	// buffered result ahead of the EOF — so completion is never
	// misruled a crash.
	s.mu.Lock()
	cc := s.conns[g]
	s.mu.Unlock()
	if cc != nil {
		select {
		case <-cc.drained:
		case <-time.After(s.controlDeadline()):
		}
	}
	s.mu.Lock()
	if _, done := s.results[g]; done || s.finished {
		s.mu.Unlock()
		return
	}
	s.report.Crashes++
	n := s.restarts[g]
	s.logf("worker %d died before its result (restart %d/%d)", g, n+1, s.cfg.MaxRestarts)
	if s.cfg.Membership != nil {
		for _, p := range s.cfg.ProcsOf(g) {
			s.cfg.Membership.Crash(p)
		}
	}
	if !s.helloed[g] && !s.peersSent {
		// The worker died before rendezvous: release the survivors with
		// a partial address map. The missing shard's wire never forms;
		// its peers time out and detach.
		s.broadcastPeersLocked()
	}
	if n >= s.cfg.MaxRestarts {
		s.failed[g] = true
		s.report.PermanentFailures++
		s.logf("worker %d failed permanently after %d restarts", g, n)
		s.checkDoneLocked()
		s.mu.Unlock()
		return
	}
	s.restarts[g] = n + 1
	s.report.Restarts++
	if s.cfg.Membership != nil {
		for _, p := range s.cfg.ProcsOf(g) {
			s.cfg.Membership.BeginRejoin(p)
		}
	}
	s.mu.Unlock()
	// Exponential backoff: 100ms doubling per restart, capped at 2s.
	pause := 100 * time.Millisecond << uint(n)
	if pause > 2*time.Second {
		pause = 2 * time.Second
	}
	time.Sleep(pause)
	if err := s.spawn(g, true); err != nil {
		s.mu.Lock()
		s.failed[g] = true
		s.report.PermanentFailures++
		s.err = err
		s.checkDoneLocked()
		s.mu.Unlock()
	}
}

func (s *supervisor) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handleConn(newControlConn(c))
	}
}

// controlDeadline bounds silence on a worker's control channel: the
// worker heartbeats at WireTimeout/3, so twice the wire timeout means
// several consecutive missed beats.
func (s *supervisor) controlDeadline() time.Duration {
	if s.cfg.WireTimeout > 0 {
		return 2 * s.cfg.WireTimeout
	}
	return 10 * time.Second
}

func (s *supervisor) handleConn(cc *controlConn) {
	defer close(cc.drained)
	defer cc.c.Close()
	cc.c.SetReadDeadline(time.Now().Add(rendezvousBudget(s.cfg.WireTimeout)))
	m, err := cc.recv()
	if err != nil || m.Type != MsgHello {
		return
	}
	g := m.Shard
	if g < 0 || g >= s.cfg.NumShards {
		s.logf("rejected a hello for shard %d of %d", g, s.cfg.NumShards)
		return
	}
	s.mu.Lock()
	s.conns[g] = cc
	restarted := s.helloed[g]
	s.helloed[g] = true
	if m.Addr != "" {
		s.addrs[g] = m.Addr
	}
	if restarted && s.cfg.Membership != nil {
		for _, p := range s.cfg.ProcsOf(g) {
			s.cfg.Membership.CompleteRejoin(p, s.lastStep[g])
		}
	}
	if !s.peersSent && len(s.addrs) == s.cfg.NumShards {
		s.broadcastPeersLocked()
	} else if s.peersSent && m.Addr == "" {
		// A detached restart needs no rendezvous, but gets an (empty)
		// peers message for symmetry if it ever waits for one.
		cc.send(Msg{Type: MsgPeers, Peers: map[int]string{}})
	}
	s.mu.Unlock()

	for {
		cc.c.SetReadDeadline(time.Now().Add(s.controlDeadline()))
		m, err := cc.recv()
		if err != nil {
			s.mu.Lock()
			_, done := s.results[g]
			stale := s.conns[g] != cc
			if done || stale || s.finished {
				s.mu.Unlock()
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// The worker went silent without exiting (stopped or
				// wedged): declare it dead and kill it — the exit
				// watcher then restarts it like any other crash.
				s.report.HeartbeatMisses++
				s.logf("worker %d missed heartbeats for %v; killing it", g, s.controlDeadline())
				if p := s.procs[g]; p != nil {
					p.Kill()
				}
			}
			s.mu.Unlock()
			return
		}
		switch m.Type {
		case MsgStep:
			s.mu.Lock()
			if s.conns[g] == cc {
				s.lastStep[g] = m.Step
				s.fireKillsLocked(g, m.Step)
			}
			s.mu.Unlock()
		case MsgResult:
			s.mu.Lock()
			if s.conns[g] == cc {
				s.results[g] = m
				s.report.Completed++
				s.logf("worker %d completed (steps through %d)", g, s.lastStep[g])
				s.checkDoneLocked()
			}
			s.mu.Unlock()
		}
	}
}

// fireKillsLocked delivers any scripted kill due for shard g at step.
func (s *supervisor) fireKillsLocked(g, step int) {
	for i, k := range s.cfg.Kills {
		if s.killsFired[i] || k.Group != g || step < k.Step {
			continue
		}
		s.killsFired[i] = true
		s.report.ScriptedKills++
		s.logf("scripted kill: worker %d after step %d", g, step)
		if p := s.procs[g]; p != nil {
			p.Kill()
		}
	}
}

// broadcastPeersLocked releases the rendezvous with the current
// address map.
func (s *supervisor) broadcastPeersLocked() {
	s.peersSent = true
	peers := make(map[int]string, len(s.addrs))
	for g, a := range s.addrs {
		peers[g] = a
	}
	for _, cc := range s.conns {
		cc.send(Msg{Type: MsgPeers, Peers: peers})
	}
}

// checkDoneLocked finishes the run once every shard has either
// delivered a result or failed permanently, verifying fingerprint
// agreement across the completed workers.
func (s *supervisor) checkDoneLocked() {
	if s.finished || len(s.results)+countTrue(s.failed) < s.cfg.NumShards {
		return
	}
	s.finished = true
	if len(s.results) == 0 {
		if s.err == nil {
			s.err = fmt.Errorf("supervise: no worker completed")
		}
		close(s.doneCh)
		return
	}
	shards := make([]int, 0, len(s.results))
	for g := range s.results {
		shards = append(shards, g)
	}
	sort.Ints(shards)
	first := s.results[shards[0]]
	s.report.Fingerprint = first.Fingerprint
	s.report.Output = first.Output
	for _, g := range shards[1:] {
		if r := s.results[g]; r.Fingerprint != first.Fingerprint {
			s.err = fmt.Errorf("supervise: result divergence: worker %d reports %q, worker %d reports %q",
				shards[0], first.Fingerprint, g, r.Fingerprint)
			break
		}
	}
	close(s.doneCh)
}

func countTrue(m map[int]bool) (n int) {
	for _, v := range m {
		if v {
			n++
		}
	}
	return
}
