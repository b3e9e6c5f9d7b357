// Package scenario holds the one description of a run that crosses a
// process or a restart — what samrsim's run flags fill in, what
// `samrsim -scenario` parses, what a supervised worker is started with
// and what a checkpoint is stamped with — and the property-based test
// harness built on it: a deterministic generator of randomized run
// configurations (systems, workloads, DLB parameters, fault schedules,
// checkpoint/resume cut points), an executor that runs them under the
// paper-invariant oracle (internal/invariant), and a greedy shrinker
// that minimises a failing scenario and prints a replayable
// `samrsim -check=invariants -scenario '...'` command line.
//
// Everything is a pure function of the scenario value: the same
// Scenario always produces the same Result and the same violations,
// which is what makes shrinking and replay possible.
package scenario

import (
	"fmt"
	"slices"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/ckpt"
	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/geom"
	"samrdlb/internal/invariant"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/workload"
)

// GroupDef describes one processor group: its size and the relative
// performance of its (homogeneous) processors.
type GroupDef struct {
	Procs int
	Perf  float64
}

// Scenario is one complete run configuration. The zero value is not
// runnable: start from Default, Generate or Parse. The field tags are
// the spec table (see key in spec.go).
type Scenario struct {
	// Seed feeds the seeded parts of the run (AMR64's refinement
	// schedule, a testbed's background traffic); a generated scenario's
	// own shape comes from Generate's seed.
	Seed     int64  `key:"seed" flag:"seed" usage:"workload and traffic seed"`
	Dataset  string `key:"dataset" flag:"dataset" usage:"{datasets}"`
	DomainN  int    `key:"n" flag:"domain" usage:"level-0 domain cells per side"`
	MaxLevel int    `key:"maxlevel" flag:"maxlevel" usage:"deepest refinement level"`
	Scheme   string `key:"policy" flag:"policy" usage:"balancer policy: {policies} (or an alias)"`
	// The machine is either one of the paper's testbeds — Testbed
	// "wan", "lan" (two machines of TestbedN processors, their network's
	// background traffic seeded by Seed) or "origin" (one) — or, with
	// Testbed empty, the Groups below.
	Testbed  string     `key:"system" flag:"system" usage:"wan | lan | origin (single machine)"`
	TestbedN int        `key:"procs" flag:"n" usage:"processors per group (origin: total)"`
	Groups   []GroupDef `key:"groups"`
	// Wan selects the MREN OC-3 WAN between groups (Gigabit LAN
	// otherwise); Traffic, when non-zero, seeds bursty background
	// traffic on the inter-group links.
	Wan            bool    `key:"wan"`
	Traffic        int64   `key:"traffic"`
	Steps          int     `key:"steps" flag:"steps" usage:"level-0 time steps" perrun:"1"`
	Gamma          float64 `key:"gamma" flag:"gamma" usage:"gain/cost threshold (0 = default 2.0)"`
	Eps            float64 `key:"eps"` // 0 = default 0.05
	RegridInterval int     `key:"regrid"`
	GridsPerProc   int     `key:"gpp"`
	WithData       bool    `key:"data" flag:"data" usage:"carry and advance real field data"`
	UseForecast    bool    `key:"forecast"`
	// CkptInterval is the level-0 steps between checkpoints; ResumeCut
	// (-1 = none) interrupts the run after that many steps and resumes
	// from the durable store, exercising the restore path mid-scenario.
	CkptInterval int           `key:"ckpt" flag:"ckpt-interval" usage:"level-0 steps between recovery checkpoints (0 = default 4)"`
	ResumeCut    int           `key:"cut" perrun:"1"`
	Quorum       int           `key:"quorum" flag:"quorum" usage:"per-group minimum of admitted processors before the group degrades to local-only balancing (0 = default 1)"`
	FaultSeed    int64         `key:"faultseed" flag:"faultseed" usage:"fault schedule seed (0 = use -seed)"`
	Faults       []fault.Event `key:"faults" flag:"faults" usage:"fault script file (see internal/fault): enables fault injection"`
	// InjectBug deliberately breaks an invariant for harness
	// self-tests: "colocation" misplaces children outside their
	// parent's group. Never produced by Generate; preserved by Shrink.
	InjectBug string `key:"bug"`
	Transport string `key:"transport" flag:"transport" perrun:"1" usage:"rank-message transport with -data: tcp (one shard per group over localhost sockets); empty = shared-memory data path"`
	// Check arms debug oracles for the run. Never produced by Generate
	// (the plan-equivalence soak and -check replays set it); preserved
	// by Shrink.
	Check Check `key:"check" flag:"check" perrun:"1" usage:"debug oracles to arm, comma-separated: ledger | data | plan | invariants (slow; a divergence panics, an invariant violation exits non-zero)"`
}

// bursty is the shared MREN WAN's background traffic, also the model of
// every inter-group link a groups= machine seeds. Both schemes of a
// comparison use the same seed, reproducing the paper's protocol of
// running them back-to-back "so that the two executions would have the
// similar network environments".
func bursty(seed int64) netsim.TrafficModel {
	return &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15, Seed: seed}
}

// lanTraffic is the shared Gigabit Ethernet's background traffic.
func lanTraffic(seed int64) netsim.TrafficModel {
	return &netsim.BurstyTraffic{QuietLoad: 0.05, BusyLoad: 0.4, MeanQuiet: 20, MeanBusy: 10, Seed: seed + 1}
}

// System builds the machine the scenario runs on.
func (s *Scenario) System() *machine.System {
	switch s.Testbed {
	case "wan":
		return machine.WanPair(s.TestbedN, bursty(s.Seed))
	case "lan":
		return machine.LanPair(s.TestbedN, lanTraffic(s.Seed))
	case "origin":
		return machine.Origin2000("ANL", s.TestbedN)
	}
	fab := netsim.NewFabric(len(s.Groups))
	specs := make([]machine.GroupSpec, len(s.Groups))
	for i, g := range s.Groups {
		fab.SetIntra(i, netsim.OriginInterconnect())
		specs[i] = machine.GroupSpec{Name: fmt.Sprintf("g%d", i), Procs: g.Procs, Perf: g.Perf}
	}
	for a := 0; a < len(s.Groups); a++ {
		for b := a + 1; b < len(s.Groups); b++ {
			var tm netsim.TrafficModel
			if s.Traffic != 0 {
				tm = bursty(s.Traffic + int64(31*a+b))
			}
			if s.Wan {
				fab.SetInter(a, b, netsim.MrenWAN(tm))
			} else {
				fab.SetInter(a, b, netsim.GigabitLAN(tm))
			}
		}
	}
	return machine.New(specs, fab, machine.DefaultFlopsPerSecond)
}

// Driver builds the scenario's workload driver. Drivers carry state
// (particles, seeded schedules), so every leg of a run needs a fresh
// one.
func (s *Scenario) Driver() workload.Driver {
	d, err := workload.ByName(s.Dataset, s.DomainN, s.Seed)
	if err != nil {
		panic(err) // Validate and Normalize admit only known datasets
	}
	return d
}

// balancer builds the scheme from the policy registry, wrapping it
// with the injected bug when the scenario asks for one. Every leg of a
// run gets a fresh instance, so stateful policies (diffusion-sos's
// flow memory) never leak across legs.
func (s *Scenario) balancer() dlb.Balancer {
	b, err := dlb.NewPolicy(s.Scheme)
	if err != nil {
		panic(err) // Validate and Normalize admit only known policies
	}
	if s.InjectBug == "colocation" {
		return misplacingBalancer{b}
	}
	return b
}

// misplacingBalancer wraps a scheme and deliberately places children
// outside their parent's group — the seeded defect the shrinker
// acceptance test hunts.
type misplacingBalancer struct {
	dlb.Balancer
}

func (m misplacingBalancer) PlaceChild(ctx *dlb.Context, childBox geom.Box, parent *amr.Grid) int {
	p := m.Balancer.PlaceChild(ctx, childBox, parent)
	grp := ctx.Sys.GroupOf(parent.Owner)
	for q := 0; q < ctx.Sys.NumProcs(); q++ {
		if ctx.Sys.GroupOf(q) != grp {
			return q
		}
	}
	return p
}

// EngineOptions builds the engine options for this scenario, with the
// given invariants hook attached (nil for none) and the scenario's
// identity stamped in. What belongs to the process rather than to the
// run — the store directory, the pool, a trace — is left for the
// caller to attach. A fresh fault.Schedule is built per call, so
// separate legs of a run never share probe-sequence state.
func (s *Scenario) EngineOptions(check func(*engine.PhaseInfo)) (engine.Options, error) {
	var sched *fault.Schedule
	var err error
	if len(s.Faults) > 0 {
		seed := s.FaultSeed
		if seed == 0 {
			seed = s.Seed
		}
		if sched, err = fault.NewSchedule(seed, s.Faults...); err != nil {
			err = fmt.Errorf("scenario faults: %w", err)
		}
	}
	return engine.Options{
		Steps:              s.Steps,
		Balancer:           s.balancer(),
		Gamma:              s.Gamma,
		ImbalanceEps:       s.Eps,
		MaxLevel:           s.MaxLevel,
		RegridInterval:     s.RegridInterval,
		GridsPerProc:       s.GridsPerProc,
		WithData:           s.WithData,
		UseForecast:        s.UseForecast,
		UseMPX:             s.Transport != "",
		Transport:          s.Transport,
		Faults:             sched,
		CheckpointInterval: s.CkptInterval,
		GroupQuorum:        s.Quorum,
		Checks:             engine.Checks(s.Check &^ CheckInvariants),
		Invariants:         check,
		Spec:               s.Identity(),
	}, err
}

// Start turns a validated scenario into a runner ready to Run, on a
// fresh system and driver. attach, when non-nil, adjusts each leg's
// options with what belongs to this process (pool, trace, invariant
// checker, checkpoint directory, a worker's wire). With resume the
// runner continues from the newest usable generation in the attached
// Checkpoints, and report says which. A scenario with a cut runs its
// first leg here and returns the resumed second — the interrupted
// process is gone, so that leg gets fresh system health, particles and
// fault schedule and reopens the store, as after a real restart. When
// attach names no store, the two legs share one in memory.
func (s *Scenario) Start(resume bool, attach func(*engine.Options)) (r *engine.Runner, report *ckpt.RestoreReport, err error) {
	var mem ckpt.Dir
	options := func() (engine.Options, error) {
		opt, err := s.EngineOptions(nil)
		if attach != nil {
			attach(&opt)
		}
		if opt.Checkpoints == nil {
			opt.Checkpoints = mem
		}
		return opt, err
	}
	opt, err := options()
	if err != nil {
		return
	}
	if cut := s.ResumeCut; !resume {
		if cut >= 0 {
			if opt.Checkpoints == nil {
				mem = ckpt.NewMemDir()
				opt.Checkpoints = mem
			}
			opt.Steps = cut
		}
		var first *engine.Runner
		if first, err = engine.Build(s.System(), s.Driver(), opt); err != nil || cut < 0 {
			return first, nil, err
		}
		first.Run()
		if opt, err = options(); err != nil {
			return
		}
	}
	r, report, err = engine.Resume(s.System(), s.Driver(), opt)
	return
}

// Outcome is what executing a scenario produced.
type Outcome struct {
	Result     *metrics.Result
	Violations []invariant.Violation
	// Panic holds a recovered panic message (engine defect), Err a
	// setup or resume error; both count as failures.
	Panic string
	Err   string
}

// Failed reports whether the scenario violated an invariant, panicked
// or failed to execute.
func (o Outcome) Failed() bool {
	return len(o.Violations) > 0 || o.Panic != "" || o.Err != ""
}

// ExecuteWithHistory runs the scenario to completion under the
// invariant oracle — rule scoping follows the policy's registered
// traits — collecting the engine's per-step time series into hist when
// it is non-nil (what the policy tournament scores from). Both legs of
// a cut pass through the same oracle and append to the same history.
func (s Scenario) ExecuteWithHistory(hist *metrics.History) (out Outcome) {
	defer func() {
		if p := recover(); p != nil {
			out.Panic = fmt.Sprint(p)
		}
	}()
	chk := invariant.NewForPolicy(s.Scheme)
	r, _, err := s.Start(false, func(o *engine.Options) {
		o.Invariants = chk.Check
		o.History = hist
	})
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Result = r.Run()
	}
	out.Violations = chk.Violations()
	return out
}

// NumProcs returns the total processor count of a scenario described
// by groups.
func (s *Scenario) NumProcs() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Procs
	}
	return n
}

// ReplayCommand renders the samrsim command line that reproduces the
// scenario — what a failing soak or fuzz run prints.
func ReplayCommand(s Scenario) string {
	return fmt.Sprintf("samrsim -check=invariants -scenario '%s'", s.Encode())
}

// --- normalisation --------------------------------------------------

var domainSizes = []int{8, 12, 16}

// Normalize clamps every field into the harness's envelope — small
// group-described machines, tiny domains, few steps — and drops fault
// events the system cannot host. It is idempotent, and both the
// generator and the shrinker funnel candidates through it, so every
// scenario they hand to the executor is well-formed by construction.
// It is not for specs a human typed: those go through Validate, which
// rejects instead of rewriting.
func (s *Scenario) Normalize() {
	s.Testbed = ""
	if !slices.Contains(workload.Names(), s.Dataset) {
		s.Dataset = "ShockPool3D"
	}
	if canon, ok := dlb.CanonicalPolicy(s.Scheme); ok {
		s.Scheme = canon
	} else {
		s.Scheme = "distributed"
	}
	// Snap the domain to the nearest supported size.
	best := domainSizes[0]
	for _, d := range domainSizes {
		if abs(d-s.DomainN) < abs(best-s.DomainN) {
			best = d
		}
	}
	s.DomainN = best
	s.MaxLevel = clamp(s.MaxLevel, 1, 2)
	if len(s.Groups) == 0 {
		s.Groups = []GroupDef{{Procs: 2, Perf: 1}, {Procs: 2, Perf: 1}}
	}
	if len(s.Groups) > 4 {
		s.Groups = s.Groups[:4]
	}
	for i := range s.Groups {
		s.Groups[i].Procs = clamp(s.Groups[i].Procs, 1, 4)
		if !(s.Groups[i].Perf > 0) || s.Groups[i].Perf > 4 {
			s.Groups[i].Perf = 1
		}
	}
	s.Steps = clamp(s.Steps, 1, 10)
	if !(s.Gamma >= 0) || s.Gamma > 16 {
		s.Gamma = 0
	}
	if !(s.Eps >= 0) || s.Eps > 1 {
		s.Eps = 0
	}
	s.RegridInterval = clamp(s.RegridInterval, 1, 4)
	s.GridsPerProc = clamp(s.GridsPerProc, 1, 4)
	if s.WithData && s.DomainN > 12 {
		s.WithData = false
	}
	if !s.WithData {
		s.Transport = ""
	}
	s.CkptInterval = clamp(s.CkptInterval, 1, 4)
	s.Quorum = clamp(s.Quorum, 0, 4)
	if s.ResumeCut >= 0 {
		// The cut needs a durable generation to resume from: at least
		// CkptInterval completed steps, and something left to run.
		if s.ResumeCut < s.CkptInterval {
			s.ResumeCut = s.CkptInterval
		}
		if s.ResumeCut >= s.Steps {
			s.ResumeCut = -1
		}
	}
	if s.ResumeCut < 0 {
		s.ResumeCut = -1
	}
	if s.ResumeCut >= 0 {
		// The forecast history restarts empty on resume (documented
		// engine limitation) — forecasting plus resume is excluded so
		// scenarios stay deterministic end to end.
		s.UseForecast = false
	}
	s.normalizeFaults()
}

// normalizeFaults drops events the current system shape cannot host
// (out-of-range groups or processors, malformed windows) and caps the
// schedule: one permanent processor failure (which must leave at least
// two survivors), and up to two bounded outages — windowed failures or
// failure/recovery pairs, whose processors rejoin mid-run.
func (s *Scenario) normalizeFaults() {
	if len(s.Faults) == 0 {
		s.Faults = nil
		return
	}
	nprocs, ngroups := s.NumProcs(), len(s.Groups)
	var kept []fault.Event
	failures, bounded := 0, 0
	for _, e := range s.Faults {
		switch e.Kind {
		case fault.LinkOutage, fault.LinkDegrade, fault.ProbeLoss:
			if ngroups < 2 || e.A >= ngroups || e.B >= ngroups || e.A == e.B {
				continue
			}
		case fault.GroupDisconnect:
			if ngroups < 2 || e.Group >= ngroups {
				continue
			}
		case fault.GroupReconnect:
			if ngroups < 2 || e.Group >= ngroups {
				continue
			}
		case fault.ProcSlowdown:
			if e.Proc >= nprocs {
				continue
			}
		case fault.ProcFailure:
			if e.Proc >= nprocs {
				continue
			}
			if e.End > e.Start {
				// Bounded outage: the processor rejoins at End, so it is
				// tolerable even on small systems.
				if nprocs < 2 || bounded >= 2 {
					continue
				}
				bounded++
			} else {
				if nprocs < 3 || failures >= 1 {
					continue
				}
				failures++
			}
		case fault.ProcRecovery:
			if e.Proc >= nprocs {
				continue
			}
		case fault.WorkerKill:
			// Kill points target worker processes by group; the
			// in-process scenario executor ignores them (the engine does
			// too), but they must survive the round-trip so a supervised
			// replay sees the same schedule.
			if e.Group < 0 || e.Group >= ngroups {
				continue
			}
		default:
			// Disk-fault kinds can corrupt every durable generation and
			// turn a healthy resume into a spurious failure; the ckpt
			// package owns those tests.
			continue
		}
		if eventOK(e, nprocs, ngroups) {
			kept = append(kept, e)
		}
	}
	if len(kept) > 4 {
		kept = kept[:4]
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	s.Faults = kept
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
}

// eventOK runs the fault package's own validation on a single event
// by building a throwaway schedule.
func eventOK(e fault.Event, nprocs, ngroups int) bool {
	sched, err := fault.NewSchedule(1, e)
	if err != nil {
		return false
	}
	return sched.Validate(nprocs, ngroups) == nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
