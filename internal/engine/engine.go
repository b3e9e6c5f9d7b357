// Package engine executes a SAMR application on a modelled
// distributed system, implementing the control flow of the paper's
// Figure 4: recursive subcycled integration over the grid hierarchy,
// local load balancing after each finer-level time step, and the
// global imbalance check — probe, gain/cost evaluation, possible
// redistribution — after each level-0 time step.
//
// Time accounting is bulk-synchronous virtual time (package vclock):
// each level step charges per-processor compute time (cells × kernel
// flops / processor speed) and per-link communication time
// (Tcomm = α + β_eff·L over the ghost-exchange plan, aggregated per
// processor pair). The numerics themselves are real: when Options
// .WithData is set, patch kernels genuinely advance the solution, in
// parallel across host cores.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"samrdlb/internal/amr"
	"samrdlb/internal/ckpt"
	"samrdlb/internal/cluster"
	"samrdlb/internal/dlb"
	"samrdlb/internal/fault"
	"samrdlb/internal/geom"
	"samrdlb/internal/load"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/mpx"
	"samrdlb/internal/netsim"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

// Options configures a run.
type Options struct {
	// Steps is the number of level-0 time steps.
	Steps int
	// Balancer is the DLB scheme under test.
	Balancer dlb.Balancer
	// Gamma is the γ threshold (0 = paper default 2.0).
	Gamma float64
	// ImbalanceEps is the imbalance trigger (0 = default 0.05).
	ImbalanceEps float64
	// MaxLevel is the deepest refinement level (default 2).
	MaxLevel int
	// RegridInterval regrids every k level-0 steps (default 1).
	RegridInterval int
	// GridsPerProc controls the initial level-0 decomposition
	// granularity (default 4 boxes per processor).
	GridsPerProc int
	// WithData makes the run carry and advance real field data.
	WithData bool
	// UseForecast enables NWS-style forecasting of probe measurements
	// in the global gain/cost evaluation (the paper's future work).
	UseForecast bool
	// Reflux enables conservative flux correction at coarse–fine
	// boundaries for kernels that expose face fluxes (requires
	// WithData; not supported together with UseMPX).
	Reflux bool
	// GradientField, when non-empty, switches regridding to
	// data-driven flagging: cells where the named field's gradient
	// exceeds GradientThreshold are refined, instead of the driver's
	// geometric schedule (requires WithData).
	GradientField     string
	GradientThreshold float64
	// UseMPX routes the ghost and restriction exchanges through mpx
	// ranks, one per processor group, as the paper's MPICH-G2 runs
	// moved data between its two machines (requires WithData): a
	// group's processors share its memory, and only what crosses two
	// groups is a message. Kernels run on the host pool either way. It
	// is set exactly when Transport is.
	UseMPX bool
	// Transport selects the data path: "" is shared memory; "tcp" runs
	// each processor group as its own rank behind a real
	// localhost socket (CRC32-framed wire messages), and "worker" is
	// one group's shard of a multi-process run. The netsim link model
	// remains the sole timing authority, so every path produces the
	// same Result.
	Transport string
	// wireFault, when non-nil, injects deterministic send failures
	// into the tcp transport (a pure function of (src, dst, attempt)).
	// The first faulted exchange phase detaches the run from the wire:
	// it and every later phase run the in-memory data path. Wire
	// failures never reach membership suspicion. Only the package's
	// own tests set it.
	wireFault mpx.WireFault
	// WireTimeout bounds every wire read and write on the tcp/worker
	// transports and enables heartbeat frames, so a dead or stopped
	// peer surfaces as a transport fault within the timeout instead of
	// blocking a phase forever (0 disables deadlines).
	WireTimeout time.Duration
	// Worker is a worker-process shard's endpoint (Transport=worker),
	// already connected to its peer workers: this process hosts the
	// rank of group Worker.Shard() behind it, while replicating the
	// deterministic control plane so every worker computes the same
	// Result. nil runs the worker detached, without a wire — the
	// restart path after a crash, when the surviving peers have
	// already detached.
	Worker *mpx.TCPEndpoint
	// Pool runs patch kernels and data motion in parallel (nil = inline).
	Pool *solver.Pool
	// Trace, when non-nil, records structured events.
	Trace *trace.Recorder
	// History, when non-nil, collects per-step time series (cells,
	// imbalance, step time, remote comm).
	History *metrics.History
	// AfterStep, when non-nil, runs after every level-0 step (used by
	// tests to check invariants continuously and by tools to stream
	// state).
	AfterStep func(step int, r *Runner)
	// Invariants, when non-nil, fires after every structural phase of
	// the run — regrid, local balance, global balance, checkpoint,
	// restore — with a snapshot of what just happened (see PhaseInfo).
	// It is the attachment point for the paper-invariant oracle in
	// internal/invariant; callbacks must not mutate the runner.
	Invariants func(*PhaseInfo)
	// Faults, when non-nil, injects the scripted fault schedule into
	// the run: link outages and degradations attach to the fabric,
	// probe losses trigger the retry/backoff/forecast path, processor
	// slowdowns and failures flow into the health vector, and whole
	// groups can be quarantined. The run then checkpoints the
	// hierarchy every CheckpointInterval level-0 steps and recovers
	// from the last checkpoint when a processor fails.
	Faults *fault.Schedule
	// CheckpointInterval is the number of level-0 steps between
	// checkpoints (default 4). A run with Faults or Checkpoints set
	// saves its hierarchy once at the end of every such step, after the
	// global phase: the one snapshot is both the recovery point and the
	// durable generation's payload.
	CheckpointInterval int
	// Checkpoints, when non-nil, enables the durable generational
	// checkpoint store (internal/ckpt) in that directory: every
	// CheckpointInterval level-0 steps the engine writes its full
	// state — hierarchy, virtual clock, counters, fault bookkeeping —
	// to a new CRC32-framed generation, making an interrupted run
	// resumable via Resume. A run that must survive its process uses a
	// ckpt.OSDir; an in-process resume cut uses ckpt.NewMemDir.
	// In-memory behaviour is unchanged when unset.
	Checkpoints ckpt.Dir
	// Spec, when non-empty, is the run's identity as space-separated
	// key=value tokens (scenario.Scenario.Identity). Every durable
	// generation carries it and Resume skips one whose identity differs;
	// an empty Spec on either side is not compared.
	Spec string
	// GroupQuorum is the minimum admitted processors a group needs to
	// take part in global balancing under elastic membership; below it
	// the group degrades to local-only decisions via the quarantine
	// path (0 = default 1, i.e. a group degrades only when every
	// member is dead or rejoining). Only meaningful with Faults.
	GroupQuorum int
	// Checks arms debug oracles (none by default), for tests and
	// samrsim -check runs only.
	Checks Checks
}

// Checks is a set of debug oracles. Each compares an incremental or
// planned structure against a full recomputation and panics on
// divergence.
type Checks uint8

const (
	// CheckLedger verifies the load ledger's incremental tables against
	// a full recomputation after every hierarchy mutation event, which
	// turns O(changes) bookkeeping into O(grids) per event.
	CheckLedger Checks = 1 << iota
	// CheckData re-runs every planned ghost fill and restriction through
	// the scan-based baseline and compares bitwise: roughly double the
	// data-path cost.
	CheckData
	// CheckPlan re-derives every served (indexed, cached) exchange plan
	// through the retained O(n²) scan planners and compares bitwise.
	// Structure-only and deterministic, so unlike CheckData it is safe
	// on multi-process worker shards.
	CheckPlan
)

func (o *Options) setDefaults() error {
	if o.Steps <= 0 {
		o.Steps = 8
	}
	if o.Balancer == nil {
		o.Balancer, _ = dlb.NewPolicy("distributed") // the paper's scheme; the name is in the table
	}
	if o.MaxLevel < 0 {
		return errors.New("engine: negative MaxLevel")
	}
	if o.MaxLevel == 0 {
		o.MaxLevel = 2
	}
	if o.RegridInterval <= 0 {
		o.RegridInterval = 1
	}
	if o.GridsPerProc <= 0 {
		o.GridsPerProc = 4
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 4
	}
	return nil
}

// regridFlopsPerCell is the modelled computational cost of
// re-partitioning and rebuilding data structures, per cell touched —
// the source of the δ term in Eq. 1.
const regridFlopsPerCell = 4.0

// evalFlops is the modelled cost of one gain/cost evaluation
// (negligible by design: "the evaluation should be very fast").
const evalFlops = 5e4

// checkpointFlopsPerCell is the modelled cost of writing or restoring
// one cell of recovery checkpoint state.
const checkpointFlopsPerCell = 2.0

// checkpointKeep is how many durable generations a store retains.
const checkpointKeep = 3

// nGhost is the ghost width of every patch the engine allocates.
const nGhost = 1

// Runner executes one SAMR application on one system with one DLB
// scheme.
type Runner struct {
	sys    *machine.System
	driver workload.Driver
	opt    Options

	h      *amr.Hierarchy
	clock  *vclock.Clock
	rec    *load.Recorder
	ledger *load.Ledger
	ctx    *dlb.Context

	kernels      []solver.Kernel
	flopsPerCell float64
	refFactor    int
	dt0          float64
	t            float64

	// shards is the rank execution of a UseMPX run: one world per group
	// behind localhost sockets (tcp), or this process's single group
	// (worker). nil runs the shared-memory data path.
	shards   *shardSet
	fluxRegs []*amr.FluxRegister

	// cnt is the live run-state record. Four parts of it live on other
	// objects and are folded in by counters(): the current ledger's
	// events and rebuilds, the open store's prune failures and the
	// membership tracker's counters are added to the bases kept here
	// (what replaced ledgers and a resumed run's earlier process
	// accumulated), and FailedProcs is the tracker's crash-dead count.
	cnt metrics.Counters

	// Per-process wire counters: wall-clock-paced, never checkpointed.
	transportFaults    int
	transportFallbacks int

	intervalStart float64
	curStep       int // level-0 step the loop is executing (for hooks)

	// The last checkpoint: the recovery point a processor failure
	// rewinds to, whose bytes are also the newest generation's payload.
	ckpt          bytes.Buffer      // amr.Save stream
	ckptStep      int               // level-0 step it covers (-1 = pristine)
	ckptT         float64           // simulated time at the checkpoint
	ckptClock     float64           // virtual wall time at the checkpoint
	ckptParticles []solver.Particle // the driver's particles at the checkpoint

	// Fault-tolerance state (active only when opt.Faults is set).
	lastFailCheck float64 // end of the last failure-scan window
	wasQuar       bool    // a group was quarantined at the last boundary
	// memb is the one record of processor liveness: a processor has
	// failed (its grids lost, awaiting recovery or a rejoin) exactly
	// while the tracker holds it dead of a crash.
	memb *machine.Membership

	// Durable checkpoint state (active only when opt.Checkpoints is
	// set).
	store        *ckpt.Store
	startStep    int // first level-0 step of this process (> 0 on resume)
	ckptAttempts int // durable write attempts; keys disk-fault decisions

	// Per-step scratch, reused across calls so the hot loop makes no
	// allocations: advanceLevel's per-processor accumulators, the
	// charging buffers and particlesPerGrid's counts. The engine loop is
	// single-threaded (vclock.AddPhase copies values immediately), so
	// plain reuse is safe.
	perProcBuf, workBuf   []float64
	commLocal, commRemote []float64
	xfers                 []amr.Transfer
	inGrid                []int
}

// procScratch returns a zeroed length-n slice backed by the given
// reusable buffer (grown once, then recycled every call).
func procScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// Build prepares a runner. The hierarchy is initialised with a level-0
// decomposition of GridsPerProc boxes per processor, assigned in
// spatial order so each group owns a contiguous region (the paper's
// group-boundary picture of Figure 6). Options the constructor rejects
// (a hierarchy shape amr.Load could not read back among them) and a
// wire that cannot be set up are an "engine: …" error.
func Build(sys *machine.System, driver workload.Driver, opt Options) (*Runner, error) {
	return newRunner(sys, driver, opt, nil, 0)
}

// New is Build for callers whose options are known good: an error is
// a panic with its text.
func New(sys *machine.System, driver workload.Driver, opt Options) *Runner {
	r, err := Build(sys, driver, opt)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// newRunner is the constructor Build and Resume share. A non-nil
// restored is a checkpointed hierarchy (amr.Load) to continue from at
// simulated time simT, instead of a fresh decomposition; Resume has
// already checked its domain, refinement factor and data against the
// driver and options, and its depth is checked here.
func newRunner(sys *machine.System, driver workload.Driver, opt Options, restored *amr.Hierarchy, simT float64) (*Runner, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	dom, fields := geom.UnitCube(driver.DomainN()), driver.Fields()
	if err := amr.CheckShape(dom, driver.RefFactor(), opt.MaxLevel, nGhost, fields); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if restored != nil && restored.MaxLevel != opt.MaxLevel {
		return nil, fmt.Errorf("engine: checkpoint has MaxLevel %d, options want %d", restored.MaxLevel, opt.MaxLevel)
	}
	r := &Runner{
		sys:          sys,
		driver:       driver,
		opt:          opt,
		clock:        vclock.New(sys.NumProcs()),
		kernels:      driver.Kernels(),
		flopsPerCell: workload.FlopsPerCell(driver),
		refFactor:    driver.RefFactor(),
		dt0:          driver.Dt0(),
		t:            simT,
	}
	r.rec = load.NewRecorder(sys, opt.MaxLevel)
	r.ctx = &dlb.Context{
		Sys: sys, Load: r.rec,
		Now:          r.clock.Now,
		Gamma:        opt.Gamma,
		ImbalanceEps: opt.ImbalanceEps,
	}
	h := restored
	if h == nil {
		h = amr.New(dom, r.refFactor, opt.MaxLevel, nGhost, opt.WithData, fields...)
	}
	// The ledger attaches before the initial decomposition so every
	// grid creation flows through it as an event; for a restored
	// hierarchy its full build picks up the checkpointed grids instead.
	r.attachHierarchy(h)
	if opt.UseForecast {
		r.ctx.Forecast = netsim.NewForecastSet()
	}
	if opt.Faults != nil {
		if err := opt.Faults.Validate(sys.NumProcs(), sys.NumGroups()); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		// Attach the schedule to every fabric link (outages, degradation
		// and probe loss), expose quarantine to the balancer, and make
		// sure a forecast history exists: it is the fallback the global
		// phase uses when every probe attempt fails.
		sys.Net.EachLink(func(a, b int, l *netsim.Link) {
			l.Fault = opt.Faults.ForLink(a, b)
		})
		r.ctx.Quarantined = r.groupQuarantined
		if r.ctx.Forecast == nil {
			r.ctx.Forecast = netsim.NewForecastSet()
		}
		// Default suspicion thresholds: suspect after 2 consecutive probe
		// failures against a group, presume dead after 4.
		r.memb = machine.NewMembership(sys, opt.GroupQuorum)
		r.ctx.Admitted = r.memb.Admitted
	}
	if opt.Checkpoints != nil {
		st, err := ckpt.OpenDir(opt.Checkpoints, checkpointKeep)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if opt.Faults != nil {
			st.SetFault(opt.Faults.ForDisk())
		}
		r.store = st
	}
	switch opt.Transport {
	case "", TransportTCP:
	case TransportWorker:
		if opt.GradientField != "" || opt.Checks&CheckData != 0 {
			// Worker replicas may hold stale copies of remote-owned
			// grids; any control decision or oracle that reads field
			// values would diverge across processes.
			return nil, errors.New("engine: Transport=worker forbids data-dependent control (GradientField/CheckData)")
		}
	default:
		return nil, errors.New("engine: unknown Transport " + opt.Transport)
	}
	if opt.UseMPX != (opt.Transport != "") {
		return nil, fmt.Errorf("engine: UseMPX=%t with Transport=%q: UseMPX is set exactly for tcp and worker", opt.UseMPX, opt.Transport)
	}
	if opt.UseMPX {
		if !opt.WithData {
			return nil, errors.New("engine: UseMPX requires WithData")
		}
		if opt.Reflux {
			return nil, errors.New("engine: Reflux and UseMPX are not supported together")
		}
		switch {
		case opt.Transport == TransportTCP:
			ss, err := newTCPShards(sys, opt.wireFault, opt.WireTimeout)
			if err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			r.shards = ss
		case opt.Worker != nil:
			r.shards = newWorkerShard(sys, opt.Worker)
		}
		// A detached worker (a restart after a crash, or a worker whose
		// peers are all gone) runs the plain in-memory data path: the
		// virtual-time charging is identical, so the Result still
		// matches the attached replicas.
	}
	if opt.Reflux {
		if !opt.WithData {
			return nil, errors.New("engine: Reflux requires WithData")
		}
		r.fluxRegs = make([]*amr.FluxRegister, opt.MaxLevel+1)
	}
	if opt.GradientField != "" && !opt.WithData {
		return nil, errors.New("engine: gradient flagging requires WithData")
	}
	if restored == nil {
		r.initLevel0()
	}
	return r, nil
}

// attachHierarchy makes h the hierarchy the run executes on. The host
// pool and the debug oracles flow down into it, and a fresh ledger —
// one full O(grids) build — listens to its mutations from here on.
func (r *Runner) attachHierarchy(h *amr.Hierarchy) {
	h.SetPool(r.opt.Pool)
	h.SetDataCheck(r.opt.Checks&CheckData != 0)
	h.SetPlanCheck(r.opt.Checks&CheckPlan != 0)
	r.h = h
	r.ledger = load.NewLedger(r.sys, h)
	r.ledger.SetSelfCheck(r.opt.Checks&CheckLedger != 0)
	h.SetListener(r.ledger)
	r.ctx.H, r.ctx.Ledger = h, r.ledger
}

// Time returns the current simulated physical time.
func (r *Runner) Time() float64 { return r.t }

// Hierarchy exposes the grid hierarchy (for tools and tests).
func (r *Runner) Hierarchy() *amr.Hierarchy { return r.h }

// Clock exposes the virtual clock.
func (r *Runner) Clock() *vclock.Clock { return r.clock }

// Ledger exposes the incremental load ledger (for tools and tests).
func (r *Runner) Ledger() *load.Ledger { return r.ledger }

// initLevel0 decomposes the domain into boxes and deals them to
// processors proportionally to performance, in spatial order.
func (r *Runner) initLevel0() {
	boxes := geom.BoxList{r.h.Domain}.SplitEvenly(r.sys.NumProcs() * r.opt.GridsPerProc)
	boxes.SortByLo()
	weights := make([]float64, len(boxes))
	for i, b := range boxes {
		weights[i] = float64(b.NumCells())
	}
	shares := make([]float64, r.sys.NumProcs())
	for p := range shares {
		shares[p] = r.sys.Perf(p)
	}
	for i, proc := range dlb.DealByShare(weights, shares) {
		r.h.AddGrid(0, boxes[i], proc, amr.NoGrid)
	}
	r.h.SortLevel(0)
	if r.opt.WithData {
		r.initialCondition(0)
	}
}

// initialCondition writes the driver's initial condition into every
// grid of level l, one grid per pool task.
func (r *Runner) initialCondition(l int) {
	grids, dx := r.h.Grids(l), r.dx(l)
	r.opt.Pool.ForEach(len(grids), func(i int) { r.driver.InitialCondition(grids[i].Patch, dx) })
}

func (r *Runner) dx(level int) float64 {
	return 1.0 / (float64(r.driver.DomainN()) * math.Pow(float64(r.refFactor), float64(level)))
}

func (r *Runner) dt(level int) float64 {
	return r.dt0 / math.Pow(float64(r.refFactor), float64(level))
}

// Run executes the configured number of level-0 steps and returns the
// measured result. Under fault injection the loop additionally applies
// processor slowdowns before each step, scans for failures after it
// (rewinding to the last checkpoint and replaying when one struck),
// takes periodic recovery checkpoints, and tracks group quarantine
// across level-0 boundaries.
func (r *Runner) Run() *metrics.Result {
	defer r.Close()
	r.curStep = r.startStep
	if r.opt.Faults != nil && r.startStep == 0 {
		r.lastFailCheck = -1
		r.checkpoint(-1)
	}
	for s := r.startStep; s < r.opt.Steps; s++ {
		r.curStep = s
		if r.opt.Faults != nil {
			r.applySlowdowns()
		}
		if s%r.opt.RegridInterval == 0 {
			r.regrid(s == 0)
		}
		r.step(0)
		r.t += r.dt0
		if r.opt.Faults != nil && r.detectFailures() {
			s = r.recoverFromCheckpoint()
			continue
		}
		r.globalBalance()
		if (r.opt.Faults != nil || r.store != nil) && (s+1)%r.opt.CheckpointInterval == 0 {
			r.checkpoint(s)
		}
		if r.opt.AfterStep != nil {
			r.opt.AfterStep(s, r)
		}
	}
	return r.result()
}

// groupQuarantined reports whether group g is unreachable at virtual
// time t: either a scripted whole-group disconnect covers it, or every
// inter-group link from g is inside an outage window.
func (r *Runner) groupQuarantined(g int, t float64) bool {
	f := r.opt.Faults
	if f == nil {
		return false
	}
	if r.memb.BelowQuorum(g) {
		// Too few admitted processors: the group cannot meaningfully
		// donate or receive global work, so it degrades to local-only
		// balancing through the same path as an unreachable group.
		return true
	}
	if f.GroupDown(g, t) {
		return true
	}
	ng := r.sys.NumGroups()
	if ng < 2 {
		return false
	}
	for h := 0; h < ng; h++ {
		if h != g && !f.LinkDown(g, h, t) {
			return false
		}
	}
	return true
}

// applySlowdowns refreshes the health vector from the fault schedule
// at the current virtual time: slowdown windows scale effective
// performance; failed processors drop to zero. A previously failed
// processor whose factor came back positive — a bounded outage window
// closed, or a scripted proc-recover fired — is healthy again but not
// yet admitted: it enters the rejoining state and owns no new work
// until the next global boundary re-admits it.
func (r *Runner) applySlowdowns() {
	now := r.clock.Now()
	revivedOwning := false
	for p := 0; p < r.sys.NumProcs(); p++ {
		f := r.opt.Faults.ProcFactor(p, now)
		if f > 1 {
			f = 1
		}
		if f > 0 && r.failed(p) {
			r.beginRejoin(p, now)
			if r.ownsCells(p) {
				revivedOwning = true
			}
		}
		r.sys.SetHealth(p, f)
	}
	if revivedOwning {
		// A returning processor that still owns grids means a recovery
		// ran with no alive processor to repartition onto (grids stayed
		// with their dead owners). The processors coming back now are
		// the only capacity there is: repartition over them and re-admit
		// on the spot — waiting for the boundary would leave work parked
		// on crash-rejoining or still-dead processors.
		r.repartition()
		r.completePendingRejoins(r.curStep)
		r.opt.Trace.Add(trace.Membership, 0, now,
			"capacity returned after total failure; repartitioned and re-admitted")
	}
}

// beginRejoin moves the crashed processor p, healthy again at now, to
// the rejoining state: it owns no new work until it is re-admitted.
func (r *Runner) beginRejoin(p int, now float64) {
	r.memb.BeginRejoin(p)
	r.opt.Trace.Add(trace.Membership, 0, now,
		fmt.Sprintf("processor %d healthy again; rejoin pending", p))
}

// failed reports whether processor p has crashed and not yet shown
// signs of life again. Only meaningful under fault injection.
func (r *Runner) failed(p int) bool {
	return r.memb.State(p) == machine.StateDead && r.memb.Cause(p) == machine.CauseCrash
}

// detectFailures scans the fault schedule for processor failures since
// the last scan and marks them dead. Returns true when a new failure
// struck (the caller must then recover from the last checkpoint).
func (r *Runner) detectFailures() bool {
	now := r.clock.Now()
	procs := r.opt.Faults.FailuresIn(r.lastFailCheck, now)
	r.lastFailCheck = now
	hit := false
	for _, p := range procs {
		if r.failed(p) {
			continue
		}
		r.sys.SetHealth(p, 0)
		r.memb.Crash(p)
		hit = true
		r.opt.Trace.Add(trace.Fault, 0, now, fmt.Sprintf("processor %d failed", p))
	}
	return hit
}

// chargeCheckpoint charges writing or restoring a checkpoint of cells
// cells to the Recovery phase, and returns the charge.
func (r *Runner) chargeCheckpoint(cells int64) float64 {
	cost := float64(cells) * checkpointFlopsPerCell / r.sys.FlopsPerSecond
	r.clock.AddUniform(vclock.Recovery, cost)
	return cost
}

// checkpoint saves the hierarchy once at the end of level-0 step step
// (-1 for the pristine pre-run state) and charges the write to the
// Recovery phase. The bytes are the recovery point a processor failure
// rewinds to and, when a store is open and step >= 0, the payload of a
// new durable generation, whose Meta snapshots the clock after the
// charge: a resumed run holds the recovery point the uninterrupted run
// held. A failed durable write (injected disk fault or real I/O error)
// is counted and traced but never aborts the run: the older
// generations are untouched.
func (r *Runner) checkpoint(step int) {
	r.ckpt.Reset()
	if err := r.h.Save(&r.ckpt); err != nil {
		panic(fmt.Sprintf("engine: checkpoint failed: %v", err))
	}
	cells := r.ledger.TotalCells()
	r.chargeCheckpoint(cells)
	r.markRecoveryPoint(step)
	now := r.clock.Now()
	if r.opt.Faults != nil {
		r.opt.Trace.Add(trace.Recovery, 0, now, fmt.Sprintf("checkpoint step=%d cells=%d", step, cells))
	}
	if r.store != nil && step >= 0 {
		seq := r.ckptAttempts
		r.ckptAttempts++
		meta := r.snapshotMeta(step)
		// The prune count, like DiskCheckpoints, describes the world in
		// which this generation landed on disk — including the prune its
		// own write triggers, whose outcome under injected faults is a pure
		// function of (seq, now) and therefore predictable.
		meta.DiskPruneErrors += r.store.PredictPruneErrors(seq, now)
		if gen, err := r.store.Write(meta, r.ckpt.Bytes(), seq, now); err != nil {
			r.cnt.DiskCheckpointErrors++
			r.opt.Trace.Add(trace.Checkpoint, 0, now,
				fmt.Sprintf("write failed step=%d: %v", step, err))
		} else {
			r.cnt.DiskCheckpoints++
			r.opt.Trace.Add(trace.Checkpoint, 0, now,
				fmt.Sprintf("gen=%d step=%d cells=%d bytes=%d", gen, step, cells, r.ckpt.Len()))
			if pe := r.cnt.DiskPruneErrors + r.store.PruneErrors(); pe > 0 {
				r.opt.Trace.Add(trace.Checkpoint, 0, now,
					fmt.Sprintf("prune failures to date: %d (stranded generation files)", pe))
			}
		}
	}
	r.fireInvariant(PhaseCheckpoint, 0, nil, nil)
}

// markRecoveryPoint makes the bytes in r.ckpt the recovery point of
// level-0 step step, taken at the current simulated time, clock and
// particle positions.
func (r *Runner) markRecoveryPoint(step int) {
	r.ckptStep, r.ckptT, r.ckptClock = step, r.t, r.clock.Now()
	if ps := r.driver.Particles(); ps != nil {
		r.ckptParticles = append(r.ckptParticles[:0], ps.Particles...)
	}
}

// counters returns the run's cumulative counters as of now: the live
// record with the parts that other objects own folded in. It is the
// one definition snapshotMeta, restoreFromMeta and result share, so a
// counter cannot be reported but not checkpointed.
func (r *Runner) counters() metrics.Counters {
	c := r.cnt
	c.LedgerEvents += r.ledger.EventCount()
	c.LedgerRebuilds += r.ledger.Rebuilds()
	if r.store != nil {
		c.DiskPruneErrors += r.store.PruneErrors()
	}
	if m := r.memb; m != nil {
		c.FailedProcs = 0 // a count of now, not a cumulative counter
		for p := 0; p < r.sys.NumProcs(); p++ {
			if r.failed(p) {
				c.FailedProcs++
			}
		}
		c.SuspectTransitions += m.SuspectTransitions
		c.SuspectedDead += m.SuspectedToDead
		c.Rejoins += m.Rejoins
		c.RejoinCatchups += m.RejoinCatchups
		c.QuorumDegradedSteps += m.QuorumDegradedSteps
	}
	return c
}

// snapshotMeta captures everything beyond the hierarchy that Resume
// needs to continue the run byte-identically. step is the completed
// level-0 step the snapshot covers; counters are cumulative, with the
// in-flight durable write already counted (a generation that lands on
// disk describes the world in which its own write succeeded).
func (r *Runner) snapshotMeta(step int) *ckpt.Meta {
	m := &ckpt.Meta{
		Version:       ckpt.MetaVersion,
		Spec:          r.opt.Spec,
		Step:          step,
		SimTime:       r.t,
		Clock:         r.clock.State(),
		IntervalStart: r.intervalStart,
		IntervalTime:  r.rec.IntervalTime(),
		Delta:         r.rec.Delta(),
		ForceEval:     r.ctx.ForceEval,
		NextGridID:    int64(r.h.NextID()),
		Counters:      r.counters(),
		WriteAttempts: r.ckptAttempts,
	}
	m.DiskCheckpoints++
	if f := r.opt.Faults; f != nil {
		m.HasFaults = true
		m.FaultSeed = f.Seed()
		m.LastFailCheck = r.lastFailCheck
		m.WasQuarantined = r.wasQuar
		m.ProbeSeq = f.ProbeSeqSnapshot()
		m.Memb = r.memb.Snapshot()
	}
	return m
}

// recoverFromCheckpoint restores the hierarchy from the last periodic
// checkpoint after a processor failure, re-runs the initial partition
// over the surviving processors, and charges the restore to the
// Recovery phase. The wall time elapsed since the checkpoint — work
// that is now lost and must be replayed — is recorded as recovery
// time. The checkpoint is bytes this process saved from a shape the
// constructor checked (amr.CheckShape), or a generation Resume already
// loaded, so a failed Load is a bug and panics like a failed Save in
// checkpoint. Particles rewind with the hierarchy. Returns the
// restored step so the caller's loop replays from the step after it.
func (r *Runner) recoverFromCheckpoint() int {
	now := r.clock.Now()
	step := r.ckptStep
	h, err := amr.Load(bytes.NewReader(r.ckpt.Bytes()))
	if err != nil {
		panic(fmt.Sprintf("engine: in-memory checkpoint does not load: %v", err))
	}
	lost := now - r.ckptClock
	r.t = r.ckptT
	if ps := r.driver.Particles(); ps != nil {
		copy(ps.Particles, r.ckptParticles)
	}
	// The restored hierarchy needs a fresh ledger — the one unavoidable
	// full recompute besides the initial build — attached before
	// repartition so the ownership reshuffle flows through it as
	// events. The replaced ledger's events move to the base.
	r.cnt.LedgerEvents += r.ledger.EventCount()
	r.attachHierarchy(h)
	r.cnt.LedgerRebuilds++
	// Outage windows that closed during the lost span: those processors
	// are healthy again, and the repartition below must spread work
	// over them too.
	for p := 0; p < r.sys.NumProcs(); p++ {
		if !r.failed(p) {
			continue
		}
		if f := r.opt.Faults.ProcFactor(p, now); f > 0 {
			if f > 1 {
				f = 1
			}
			r.sys.SetHealth(p, f)
			r.beginRejoin(p, now)
		}
	}
	r.repartition()
	// The recovery repartition spreads work over every alive processor,
	// rejoining ones included: it is their re-admission, so no separate
	// catch-up evaluation is needed.
	r.completePendingRejoins(step)
	restore := r.chargeCheckpoint(r.ledger.TotalCells())
	r.cnt.Recoveries++
	r.cnt.RecoveryTime += lost + restore
	// The aborted interval's accumulators describe work that no longer
	// exists; start the next measurement interval clean.
	r.rec.ResetInterval()
	r.intervalStart = r.clock.Now()
	r.opt.Trace.Add(trace.Recovery, 0, r.clock.Now(),
		fmt.Sprintf("restored checkpoint step=%d lost=%.4fs survivors=%d",
			step, lost, r.sys.NumAlive()))
	r.curStep = step
	r.fireInvariant(PhaseRestore, 0, nil, nil)
	return step
}

// repartition re-runs the initial level-0 partition over the surviving
// processors (spatial order, shares proportional to effective
// performance); finer grids follow their parent's owner, preserving
// the distributed scheme's same-group placement.
func (r *Runner) repartition() {
	alive := r.sys.AliveProcs()
	if len(alive) == 0 {
		return // every processor failed; nothing sensible remains
	}
	r.h.SortLevel(0)
	grids := r.h.Grids(0)
	weights := make([]float64, len(grids))
	for i, g := range grids {
		weights[i] = float64(g.NumCells())
	}
	shares := make([]float64, len(alive))
	for k, p := range alive {
		shares[k] = r.sys.EffectivePerf(p)
	}
	for i, k := range dlb.DealByShare(weights, shares) {
		r.h.SetOwner(grids[i], alive[k])
	}
	for l := 1; l <= r.h.MaxLevel; l++ {
		for _, g := range r.h.Grids(l) {
			if p := r.h.Grid(g.Parent); p != nil {
				r.h.SetOwner(g, p.Owner)
			}
		}
	}
}

// step advances one level by one of its time steps, then recursively
// subcycles the finer level (Fig. 2's ordering), restricts the fine
// solution, and runs the local balancing of Fig. 4's right column.
func (r *Runner) step(level int) {
	hasFine := level < r.h.MaxLevel && len(r.h.Grids(level+1)) > 0
	if r.fluxRegs != nil && hasFine {
		r.fluxRegs[level+1] = amr.NewFluxRegister(r.h, level+1)
	}
	r.advanceLevel(level)
	r.opt.Trace.Add(trace.Step, level, r.clock.Now(), "")
	if hasFine {
		for i := 0; i < r.refFactor; i++ {
			r.step(level + 1)
		}
		r.restrict(level + 1)
		if r.fluxRegs != nil && r.fluxRegs[level+1] != nil {
			r.fluxRegs[level+1].Apply()
			r.fluxRegs[level+1].Release()
			r.fluxRegs[level+1] = nil
		}
	}
	if level > 0 {
		r.localBalance(level)
	}
}

// advanceLevel performs one time step of one level: ghost exchange
// (charged over the network model), kernel compute (charged per
// processor; really executed when WithData), and load recording.
func (r *Runner) advanceLevel(level int) {
	grids := r.h.Grids(level)
	if len(grids) == 0 {
		return
	}

	// Communication: ghost plan, aggregated per processor pair.
	r.chargeTransfers(r.h.GhostTransfers(level), vclock.LocalComm, vclock.RemoteComm)

	// Real data motion and numerics.
	if r.opt.WithData {
		dt, dx := r.dt(level), r.dx(level)
		// The ghost exchange and the kernel sweep run as separate phases,
		// so a wire failure during the exchange can fall back to the
		// in-memory fill (an idempotent full rewrite) without re-running
		// any kernel.
		if r.shards == nil || !r.h.CheckFill(level, func() bool {
			return r.runWirePhase("fill", level, func(rank *mpx.Rank) { r.h.FillGhostsMPX(rank, level, r.sys.GroupOf) })
		}) {
			r.h.FillGhostsData(level)
		}
		// Every transport steps every grid over the host pool: ranks exist
		// for the exchange phases, kernels are per-grid independent. A
		// worker replica therefore steps its copies of remote-owned grids
		// too, keeping them as fresh as the last wire exchange allows, so
		// after a detach the plain data path continues from a
		// self-consistent state. The virtual compute charge below is
		// ledger-driven and unaffected.
		r.stepGrids(grids, level, dt, dx)
	}

	// Virtual compute time and workload snapshot: the per-processor
	// cell counts come from the ledger in O(procs) instead of a walk
	// over the level's grids. Accumulators live on reused Runner
	// scratch (AddPhase copies them out immediately).
	perProc := procScratch(&r.perProcBuf, r.sys.NumProcs())
	work := procScratch(&r.workBuf, r.sys.NumProcs())
	for p := range work {
		work[p] = r.ledger.ProcCells(level, p) * r.flopsPerCell
	}
	if level == 0 {
		r.particleWork(work)
	}
	for p := range perProc {
		if work[p] > 0 {
			eff := r.sys.EffectivePerf(p)
			if eff <= 0 {
				// A processor that failed mid-step still finishes it at
				// nominal speed; recovery follows at the step boundary.
				eff = r.sys.Perf(p)
			}
			perProc[p] = work[p] / (eff * r.sys.FlopsPerSecond)
		}
		r.rec.RecordLevelWork(p, level, work[p])
	}
	r.clock.AddPhase(vclock.Compute, perProc)
	r.rec.RecordIteration(level)

	if c := r.ledger.TotalCells(); c > r.cnt.MaxCells {
		r.cnt.MaxCells = c
	}
}

// stepGrids advances every grid of one level by dt over the host
// pool. When refluxing, the task that steps a grid also feeds its face
// fluxes to the flux registers and releases them: the interface plan
// gives every face one fine contributor and one coarse writer, so
// concurrent tasks write disjoint register slots and the result does
// not depend on task order.
func (r *Runner) stepGrids(grids []*amr.Grid, level int, dt, dx float64) {
	var asCoarse, asFine *amr.FluxRegister
	if r.fluxRegs != nil {
		asFine = r.fluxRegs[level]
		if level < r.h.MaxLevel {
			asCoarse = r.fluxRegs[level+1]
		}
	}
	stepGrid := func(i int) {
		g := grids[i]
		for _, k := range r.kernels {
			fk, ok := k.(solver.FluxedKernel)
			if !ok || r.fluxRegs == nil {
				k.Step(g.Patch, dt, dx)
				continue
			}
			fl := fk.StepFluxes(g.Patch, dt, dx)
			if asCoarse != nil {
				asCoarse.AddCoarse(g, fl)
			}
			if asFine != nil {
				asFine.AddFine(g, fl)
			}
			fl.Release()
		}
	}
	r.opt.Pool.ForEach(len(grids), stepGrid)
}

// particleWork advances the particle population (once per level-0
// step) and adds its per-processor cost: each particle is integrated
// by the owner of the level-0 grid containing it.
func (r *Runner) particleWork(work []float64) {
	ps := r.driver.Particles()
	if ps == nil {
		return
	}
	ps.Step(r.dt0, r.opt.Pool)
	grids := r.h.Grids(0)
	// float64(…) rounds each product before the add, here and in the
	// link model's TransferTime, which chargeTransfers inlines: the Go
	// spec lets a compiler fuse x*y + z into one multiply-add, whose
	// single rounding differs in the last bit (arm64 fuses, amd64 never
	// does), and a run must compute the same bits on every GOARCH.
	for at, n := range r.particlesPerGrid(ps) {
		work[grids[at].Owner] += float64(float64(n) * solver.FlopsPerParticle)
	}
}

// particlesPerGrid counts the particles inside each level-0 grid, in
// Grids(0) order, in one pass over the particles: each is located by
// its level-0 cell. The slice is reused by the next call.
func (r *Runner) particlesPerGrid(ps *solver.ParticleSet) []int {
	dx0 := r.dx(0)
	n := len(r.h.Grids(0))
	r.inGrid = slices.Grow(r.inGrid[:0], n)[:n]
	clear(r.inGrid)
	loc := r.h.Locator(0)
	for i := range ps.Particles {
		pos := &ps.Particles[i].Pos
		cell := geom.Index{cellOf(pos[0], dx0), cellOf(pos[1], dx0), cellOf(pos[2], dx0)}
		if at := loc.Locate(cell); at >= 0 {
			r.inGrid[at]++
		}
	}
	return r.inGrid
}

// cellOf returns the cell k of a mesh of spacing dx that holds the
// coordinate, float64(k)*dx ≤ pos < float64(k+1)*dx. Those are the
// comparisons ParticleSet.CountInRegion makes against a grid's faces,
// so a particle on a face, or on a mesh whose spacing is not a power
// of two, lands in the grid CountInRegion counts it in; the quotient
// is off by at most one.
func cellOf(pos, dx float64) int {
	k := int(pos / dx)
	if float64(k)*dx > pos {
		k--
	} else if float64(k+1)*dx <= pos {
		k++
	}
	return k
}

// restrict projects level l onto l-1, charging the transfer plan.
func (r *Runner) restrict(level int) {
	r.chargeTransfers(r.h.RestrictTransfers(level), vclock.LocalComm, vclock.RemoteComm)
	if r.opt.WithData {
		if r.shards == nil || !r.h.CheckRestrict(level, func() bool {
			return r.runWirePhase("restrict", level, func(rank *mpx.Rank) { r.h.RestrictMPX(rank, level, r.sys.GroupOf) })
		}) {
			r.h.RestrictData(level)
		}
	}
}

// chargeMigrations charges grid-migration transfers into the given
// phases (local and remote by group relation).
func (r *Runner) chargeMigrations(migs []dlb.Migration, localPhase, remotePhase vclock.Phase) {
	xs := r.xfers[:0]
	for _, m := range migs {
		xs = append(xs, amr.Transfer{Src: m.From, Dst: m.To, Bytes: m.Bytes})
	}
	r.xfers = xs
	r.chargeTransfers(xs, localPhase, remotePhase)
}

// chargeTransfers charges each transfer's link time to both of its
// endpoints, in list order: into localPhase when they share a group,
// into remotePhase otherwise. The link time is taken at the current
// virtual time, since traffic varies with it.
func (r *Runner) chargeTransfers(xs []amr.Transfer, localPhase, remotePhase vclock.Phase) {
	local := procScratch(&r.commLocal, r.sys.NumProcs())
	remote := procScratch(&r.commRemote, r.sys.NumProcs())
	now := r.clock.Now()
	anyLocal, anyRemote := false, false
	for _, x := range xs {
		link, err := r.sys.LinkBetween(x.Src, x.Dst)
		if err != nil {
			// No fabric link between the pair: nothing to charge.
			continue
		}
		tt := link.TransferTime(now, float64(x.Bytes))
		if r.sys.SameGroup(x.Src, x.Dst) {
			local[x.Src] += tt
			local[x.Dst] += tt
			anyLocal = true
		} else {
			remote[x.Src] += tt
			remote[x.Dst] += tt
			anyRemote = true
		}
	}
	if anyLocal {
		r.clock.AddPhase(localPhase, local)
	}
	if anyRemote {
		r.clock.AddPhase(remotePhase, remote)
	}
}

// localBalance runs the scheme's local phase for one level.
func (r *Runner) localBalance(level int) {
	migs := r.opt.Balancer.LocalBalance(r.ctx, level)
	if len(migs) > 0 {
		r.cnt.LocalMigrations += len(migs)
		r.chargeMigrations(migs, vclock.LocalComm, vclock.RemoteComm)
		r.opt.Trace.Add(trace.LocalBalance, level, r.clock.Now(), fmt.Sprintf("migrations=%d", len(migs)))
	}
	// The hook fires even for an empty migration list: "already
	// balanced" is itself a claim the oracle checks.
	r.fireInvariant(PhaseLocalBalance, level, nil, migs)
}

// globalBalance implements the left column of Fig. 4 after a level-0
// step: record T(t), let the scheme decide, charge probe and
// redistribution costs, measure δ for the next decision, and reset
// the interval accumulators.
func (r *Runner) globalBalance() {
	r.rec.SetIntervalTime(r.clock.Now() - r.intervalStart)
	if r.opt.History != nil {
		r.opt.History.Record("step-time", r.clock.Now()-r.intervalStart)
		r.opt.History.Record("cells", float64(r.ledger.TotalCells()))
		r.opt.History.Record("imbalance-ratio", r.rec.ImbalanceRatio())
		r.opt.History.Record("remote-comm", r.clock.PhaseTotal(vclock.RemoteComm))
	}
	if r.opt.Faults != nil {
		r.noteMembership()
		r.noteQuarantine()
	}
	forced := r.ctx.ForceEval
	d := r.opt.Balancer.GlobalBalance(r.ctx)
	r.ctx.ForceEval = false
	overhead := d.ProbeTime
	if d.Evaluated {
		r.cnt.GlobalEvals++
		overhead += evalFlops / r.sys.FlopsPerSecond
		if forced {
			r.cnt.CatchupEvals++
		}
	}
	if overhead > 0 {
		r.clock.AddUniform(vclock.DLBOverhead, overhead)
	}
	if d.Evaluated {
		r.opt.Trace.Add(trace.GlobalCheck, 0, r.clock.Now(),
			fmt.Sprintf("gain=%.4g cost=%.4g invoked=%v forced=%v", d.Gain, d.Cost, d.Invoked, forced))
	}
	if d.RetryTime > 0 {
		// Wasted probe attempts and backoff inflate the δ overhead term
		// of Eq. 1: the next cost estimate sees an unreliable network.
		failedAttempts := d.ProbeAttempts - 1
		if d.ProbeFailed {
			failedAttempts = d.ProbeAttempts
		}
		r.cnt.ProbeRetries += failedAttempts
		r.cnt.RetryTime += d.RetryTime
		r.rec.AddDelta(d.RetryTime)
		r.opt.Trace.Add(trace.ProbeRetry, 0, r.clock.Now(),
			fmt.Sprintf("attempts=%d retry-time=%.4fs failed=%v", d.ProbeAttempts, d.RetryTime, d.ProbeFailed))
	}
	if d.UsedForecast {
		r.cnt.ProbeFallbacks++
		r.opt.Trace.Add(trace.Fault, 0, r.clock.Now(), "probe failed; cost model fell back to forecast")
	} else if d.ProbeFailed {
		r.opt.Trace.Add(trace.Fault, 0, r.clock.Now(), "probe failed; no forecast history; redistribution skipped")
	}
	if d.ProbeAttempts > 0 {
		// The probe outcome is the membership tracker's evidence stream:
		// retry exhaustion raises suspicion against both endpoint
		// groups, success clears it.
		r.noteProbeEvidence(d.ProbedA, d.ProbedB, d.ProbeFailed)
	}
	if d.Invoked {
		if d.Evaluated {
			// The distributed scheme's global redistribution: remote
			// transfers plus the computational overhead δ (measured
			// and remembered for the next Eq. 1 evaluation).
			r.cnt.GlobalRedists++
			r.chargeMigrations(d.Migrations, vclock.Redistribution, vclock.Redistribution)
			var movedCells int64
			for _, m := range d.Migrations {
				if g := r.h.Grid(m.Grid); g != nil {
					movedCells += g.NumCells()
				}
			}
			// δ covers "the time to partition the grids at the top
			// level, rebuild the internal data structures, and update
			// boundary conditions" — it scales with the level-0 size,
			// not just the moved volume.
			delta := float64(movedCells+r.h.TotalCells(0)) * regridFlopsPerCell / r.sys.FlopsPerSecond
			r.clock.AddUniform(vclock.Redistribution, delta)
			r.rec.SetDelta(delta)
			r.opt.Trace.Add(trace.Redistribution, 0, r.clock.Now(),
				fmt.Sprintf("migrations=%d bytes=%d", len(d.Migrations), d.MovedBytes))
		} else {
			// The parallel scheme's per-step rebalancing of level 0.
			r.cnt.LocalMigrations += len(d.Migrations)
			r.chargeMigrations(d.Migrations, vclock.LocalComm, vclock.RemoteComm)
		}
	}
	if d.GainCostValid {
		r.cnt.LastGain, r.cnt.LastCost, r.cnt.LastGamma = d.Gain, d.Cost, d.Gamma
	}
	// The oracle hook fires before the interval resets, so checkers
	// still see the recorder state the decision read.
	r.fireInvariant(PhaseGlobalBalance, 0, &d, d.Migrations)
	r.rec.ResetInterval()
	r.intervalStart = r.clock.Now()
}

// regrid rebuilds the fine levels from the driver's flags at the
// current simulated time, placing children via the scheme.
func (r *Runner) regrid(initial bool) {
	flagger := func(level int, f *cluster.FlagField) {
		if r.opt.GradientField != "" {
			r.h.FlagWhereGradient(level, r.opt.GradientField, r.opt.GradientThreshold, f)
			return
		}
		r.driver.Flag(level, r.t, f)
	}
	place := func(childBox geom.Box, parent *amr.Grid) int {
		return r.opt.Balancer.PlaceChild(r.ctx, childBox, parent)
	}
	r.h.RegridAll(0, flagger, amr.DefaultRegridParams(), place)
	if initial && r.opt.WithData {
		// At t=0 the exact initial condition beats prolonged data.
		for l := 1; l <= r.h.MaxLevel; l++ {
			r.initialCondition(l)
		}
	}
	// Charge the regrid cost: flag evaluation, clustering and
	// data-structure rebuild scale with the cell count.
	cells := r.ledger.TotalCells()
	r.clock.AddUniform(vclock.Regrid, float64(cells)*regridFlopsPerCell/r.sys.FlopsPerSecond)
	r.opt.Trace.Add(trace.Regrid, 0, r.clock.Now(), fmt.Sprintf("cells=%d", cells))
	r.fireInvariant(PhaseRegrid, 0, nil, nil)
}

// noteQuarantine tracks group reachability across level-0 boundaries:
// it counts boundaries at which some group is quarantined and, when
// the last quarantine lifts, arms a forced catch-up gain/cost
// evaluation for the decision that follows.
func (r *Runner) noteQuarantine() {
	now := r.clock.Now()
	var quar []int
	for g := 0; g < r.sys.NumGroups(); g++ {
		if r.groupQuarantined(g, now) {
			quar = append(quar, g)
		}
	}
	if len(quar) > 0 {
		r.cnt.QuarantinedSteps++
		r.wasQuar = true
		r.opt.Trace.Add(trace.Quarantine, 0, now, fmt.Sprintf("groups=%v", quar))
	} else if r.wasQuar {
		r.wasQuar = false
		r.ctx.ForceEval = true
		r.opt.Trace.Add(trace.Quarantine, 0, now, "lifted; catch-up evaluation armed")
	}
}

// result assembles the run's metrics.
func (r *Runner) result() *metrics.Result {
	res := &metrics.Result{
		Scheme:      r.opt.Balancer.Name(),
		Dataset:     r.driver.Name(),
		SystemName:  r.sys.String(),
		Procs:       r.sys.NumProcs(),
		PerfSum:     r.sys.TotalPerf(),
		Steps:       r.opt.Steps,
		Total:       r.clock.Now(),
		Breakdown:   r.clock.Breakdown(),
		Utilisation: r.clock.Utilisation(),
		Counters:    r.counters(),
	}
	if r.opt.Faults != nil {
		res.FaultEvents = r.opt.Faults.NumEvents()
	}
	if r.shards != nil {
		res.TransportFaults = r.transportFaults
		res.TransportFallbacks = r.transportFallbacks
		res.TransportFrames, res.TransportBytes = r.shards.stats()
		res.TransportTimeouts = r.shards.timeoutCount()
	}
	return res
}
