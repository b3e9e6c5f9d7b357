package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"samrdlb/internal/machine"
	"samrdlb/internal/mpx"
	"samrdlb/internal/trace"
)

// Transport mode names Options.Transport accepts besides "", the
// shared-memory data path.
const (
	// TransportTCP runs each processor group as its own shard world
	// behind a real localhost socket: inter-group messages travel as
	// CRC32-framed bytes, exercising marshalling, ordering and the
	// abort protocol. The netsim link model remains the sole timing
	// authority — the wire carries payloads, never costs — and the
	// first wire failure detaches the run, as it does a worker.
	TransportTCP = "tcp"
	// TransportWorker is one shard of a supervised multi-process run:
	// this OS process hosts a single group's rank behind an endpoint
	// connected to the peer worker processes, while replicating the
	// deterministic control plane (every worker computes the same
	// decisions, clock and Result). A wire failure — a crashed or
	// stopped peer — permanently detaches the worker onto the plain
	// in-memory data path, whose virtual-time charging is identical.
	TransportWorker = "worker"
)

// shardSet is the engine's view of a rank execution, in which a rank
// is a processor group (a shard). Over tcp it is one World plus one
// TCPEndpoint per group, fully connected with the lower-dials-higher
// convention; a worker process holds its own group's world and
// endpoint. Every wire failure policy is the same: the first one
// detaches the set for good.
type shardSet struct {
	worlds   []*mpx.World
	eps      []*mpx.TCPEndpoint
	detached atomic.Bool
}

// shardRank maps a rank to the shard hosting it: a world hosts one
// rank, so every endpoint routes by the group's own id.
func shardRank(rank int) int { return rank }

// newTCPShards brings up one endpoint per group on an ephemeral
// localhost port, connects every pair, and builds the worlds.
func newTCPShards(sys *machine.System, wf mpx.WireFault, wireTimeout time.Duration) (*shardSet, error) {
	ng := sys.NumGroups()
	s := &shardSet{}
	for g := 0; g < ng; g++ {
		ep, err := mpx.ListenTCP(g, "127.0.0.1:0", shardRank)
		if err != nil {
			s.close()
			return nil, err
		}
		if wf != nil {
			ep.SetFault(wf)
		}
		ep.SetWireTimeout(wireTimeout)
		s.eps = append(s.eps, ep)
	}
	for i := 0; i < ng; i++ {
		for j := i + 1; j < ng; j++ {
			if err := s.eps[i].Dial(j, s.eps[j].Addr()); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	for g := 0; g < ng; g++ {
		w := mpx.NewShardWorld(ng, shardRank, g, s.eps[g])
		s.eps[g].Bind(w)
		s.worlds = append(s.worlds, w)
	}
	return s, nil
}

// newWorkerShard wraps one worker process's already-connected endpoint
// in a single-world shard set: the endpoint's group is the rank hosted
// here, the peer groups live in other OS processes behind the wire.
func newWorkerShard(sys *machine.System, ep *mpx.TCPEndpoint) *shardSet {
	w := mpx.NewShardWorld(sys.NumGroups(), shardRank, ep.Shard(), ep)
	ep.Bind(w)
	return &shardSet{
		worlds: []*mpx.World{w},
		eps:    []*mpx.TCPEndpoint{ep},
	}
}

// wireErr returns the first failure an endpoint recorded on its own
// goroutines (a read timeout, a lost peer, a failed heartbeat) while
// no phase was running to notice it, or nil.
func (s *shardSet) wireErr() error {
	for _, ep := range s.eps {
		if err := ep.Err(); err != nil {
			return err
		}
	}
	return nil
}

// detach permanently abandons the wire: broadcast the abort
// (best-effort — peers blocked mid-phase wake immediately) and close
// the endpoints (peers that miss the frame get the EOF instead). Over
// tcp every endpoint is this run's; a worker's peers converge on
// detaching too.
func (s *shardSet) detach(cause string) {
	if s.detached.Swap(true) {
		return
	}
	for _, ep := range s.eps {
		ep.Abort(cause)
		ep.Close()
	}
}

// wireFailure summarises a phase that failed purely on the transport:
// the computation never misbehaved, the wire did.
type wireFailure struct {
	cause  string
	faults int // TransportError panics across all worlds
}

// run executes body across every world concurrently and joins them —
// the join is the global barrier between phases. A transport-only
// failure is returned for the caller's fallback path; any other rank
// panic is re-raised unchanged.
func (s *shardSet) run(body func(r *mpx.Rank)) *wireFailure {
	var wg sync.WaitGroup
	panics := make([]interface{}, len(s.worlds))
	for i, w := range s.worlds {
		wg.Add(1)
		go func(i int, w *mpx.World) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			w.Run(body)
		}(i, w)
	}
	wg.Wait()
	var merged mpx.RunPanicError
	for _, p := range panics {
		switch v := p.(type) {
		case nil:
		case *mpx.RunPanicError:
			merged.Panics = append(merged.Panics, v.Panics...)
		default:
			panic(v)
		}
	}
	if len(merged.Panics) == 0 {
		return nil
	}
	if !merged.TransportOnly() {
		panic(&merged)
	}
	f := &wireFailure{}
	if p := merged.Primary(); p != nil {
		f.cause = fmt.Sprintf("%v", p.Value)
	}
	for i := range merged.Panics {
		if _, ok := merged.Panics[i].Value.(*mpx.TransportError); ok {
			f.faults++
		}
	}
	return f
}

// stats sums frames and bytes actually written to the wire.
func (s *shardSet) stats() (frames, bytes int64) {
	for _, ep := range s.eps {
		f, b := ep.Stats()
		frames += f
		bytes += b
	}
	return
}

// timeoutCount sums wire deadline expiries across the endpoints.
func (s *shardSet) timeoutCount() (n int64) {
	for _, ep := range s.eps {
		n += ep.Timeouts()
	}
	return
}

func (s *shardSet) close() {
	for _, ep := range s.eps {
		ep.Close()
	}
}

// runWirePhase executes one data-motion phase over the worlds,
// returning false without trying once the set has detached. The first
// wire failure — a transport-only phase failure, or one an endpoint
// recorded between phases — is counted, traced and detaches the set,
// and false sends the caller to the in-memory data path for this and
// every later phase. That path is an idempotent full rewrite of exactly
// the cells the wire path writes, so a partial wire phase followed by
// the fallback is bit-identical to the fallback alone, and the virtual-
// time charging is the same on both. When a failure lands is wall-
// clock, so it never reaches the deterministic control plane: the
// netsim links stay the only timing and evidence authority.
func (r *Runner) runWirePhase(phase string, level int, body func(rank *mpx.Rank)) bool {
	if r.shards.detached.Load() {
		return false
	}
	var f *wireFailure
	if err := r.shards.wireErr(); err != nil {
		f = &wireFailure{cause: err.Error()}
	} else if f = r.shards.run(body); f == nil {
		return true
	}
	r.transportFaults += f.faults
	r.transportFallbacks++
	r.opt.Trace.Add(trace.Fault, level, r.clock.Now(),
		fmt.Sprintf("wire %s failed (%s); detached onto the in-memory exchange", phase, f.cause))
	r.shards.detach(f.cause)
	return false
}

// Close releases the runner's wire endpoints, if it has any. Run calls
// it on exit; it is safe to call again.
func (r *Runner) Close() {
	if r.shards != nil {
		r.shards.close()
	}
}
