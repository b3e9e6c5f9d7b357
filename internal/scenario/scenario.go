// Package scenario is the property-based test harness for the SAMR
// DLB engine: a deterministic generator of randomized run
// configurations (systems, workloads, DLB parameters, fault
// schedules, checkpoint/resume cut points), an executor that runs
// them under the paper-invariant oracle (internal/invariant), and a
// greedy shrinker that minimises a failing scenario and prints a
// replayable `samrsim -invariants -scenario '...'` command line.
//
// Everything is a pure function of the scenario value: the same
// Scenario always produces the same Result and the same violations,
// which is what makes shrinking and replay possible.
package scenario

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"samrdlb/internal/amr"
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
// runnable; use Generate, Parse or build one and call Normalize.
type Scenario struct {
	// Seed feeds the seeded parts of the run (AMR64's refinement
	// schedule); the scenario's own shape comes from Generate's seed.
	Seed    int64
	Dataset string // a workload.Names() entry
	DomainN int
	// MaxLevel is the deepest refinement level (1 or 2).
	MaxLevel int
	// Scheme names the balancer policy (a dlb.PolicyNames() entry or an
	// alias of one). Normalize canonicalises it.
	Scheme string
	Groups []GroupDef
	// Wan selects the MREN OC-3 WAN between groups (Gigabit LAN
	// otherwise); Traffic, when non-zero, seeds bursty background
	// traffic on the inter-group links.
	Wan            bool
	Traffic        int64
	Steps          int
	Gamma          float64 // 0 = paper default 2.0
	Eps            float64 // 0 = default 0.05
	RegridInterval int
	GridsPerProc   int
	WithData       bool
	UseForecast    bool
	// CkptInterval is the level-0 steps between checkpoints; ResumeCut
	// (-1 = none) interrupts the run after that many steps and resumes
	// from the durable store, exercising the restore path mid-scenario.
	CkptInterval int
	ResumeCut    int
	// Quorum is the per-group minimum of admitted processors for
	// global balancing under elastic membership (0 = engine default 1).
	Quorum    int
	FaultSeed int64
	Faults    []fault.Event
	// InjectBug deliberately breaks an invariant for harness
	// self-tests: "colocation" misplaces children outside their
	// parent's group. Never produced by Generate; preserved by Shrink.
	InjectBug string
	// PlanCheck arms the engine's exchange-plan oracle for the run:
	// every served plan is compared bitwise against the O(n²) scan
	// baselines. Never produced by Generate (the plan-equivalence soak
	// and -plancheck replays force it); preserved by Shrink.
	PlanCheck bool
}

// System builds the machine the scenario runs on.
func (s *Scenario) System() *machine.System {
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
				tm = &netsim.BurstyTraffic{
					QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15,
					Seed: s.Traffic + int64(31*a+b),
				}
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
		panic(err) // Normalize admits only known datasets
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
		panic(err) // Normalize admits only known policies
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
// given invariants hook attached (nil for none). CheckpointDir is
// left empty; Execute (or the caller) supplies it when the scenario
// resumes. A fresh fault.Schedule is built per call, so separate legs
// of a run never share probe-sequence state.
func (s *Scenario) EngineOptions(check func(*engine.PhaseInfo)) (engine.Options, error) {
	opt := engine.Options{
		Steps:              s.Steps,
		Balancer:           s.balancer(),
		Gamma:              s.Gamma,
		ImbalanceEps:       s.Eps,
		MaxLevel:           s.MaxLevel,
		RegridInterval:     s.RegridInterval,
		GridsPerProc:       s.GridsPerProc,
		WithData:           s.WithData,
		UseForecast:        s.UseForecast,
		CheckpointInterval: s.CkptInterval,
		GroupQuorum:        s.Quorum,
		PlanCheck:          s.PlanCheck,
		Invariants:         check,
	}
	if len(s.Faults) > 0 {
		sched, err := fault.NewSchedule(s.FaultSeed, s.Faults...)
		if err != nil {
			return opt, fmt.Errorf("scenario faults: %w", err)
		}
		opt.Faults = sched
	}
	return opt, nil
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

// Summary renders a short human-readable account of a failure.
func (o Outcome) Summary() string {
	switch {
	case o.Panic != "":
		return "panic: " + o.Panic
	case o.Err != "":
		return "error: " + o.Err
	case len(o.Violations) > 0:
		var b strings.Builder
		fmt.Fprintf(&b, "%d violation(s):", len(o.Violations))
		for _, v := range o.Violations {
			b.WriteString("\n  " + v.String())
		}
		return b.String()
	default:
		return "ok"
	}
}

// Execute runs the scenario under the invariant oracle. With a resume
// cut, the run executes to the cut against a durable store in a
// temporary directory, then a fresh system and driver resume from the
// newest generation and finish the run — the restored state passes
// through the same oracle.
func (s Scenario) Execute() (out Outcome) {
	return s.execute(nil)
}

// ExecuteWithHistory runs the scenario like Execute while collecting
// the engine's per-step time series (step-time, cells,
// imbalance-ratio, remote-comm) into hist — what the policy tournament
// scores from. With a resume cut, both legs append to the same
// history.
func (s Scenario) ExecuteWithHistory(hist *metrics.History) Outcome {
	return s.execute(hist)
}

func (s Scenario) execute(hist *metrics.History) (out Outcome) {
	defer func() {
		if p := recover(); p != nil {
			out.Panic = fmt.Sprint(p)
		}
	}()
	// Rule scoping follows the policy's registered traits: structural
	// rules always on, paper-specific rules only where the policy
	// promises them.
	chk := invariant.NewForPolicy(s.Scheme)
	opt, err := s.EngineOptions(chk.Check)
	opt.History = hist
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if s.ResumeCut >= 0 {
		dir, derr := os.MkdirTemp("", "samr-scn-")
		if derr != nil {
			out.Err = derr.Error()
			return out
		}
		defer os.RemoveAll(dir)
		opt.CheckpointDir = dir
		first := opt
		first.Steps = s.ResumeCut
		engine.New(s.System(), s.Driver(), first).Run()
		// The interrupted process is gone: the resume leg gets fresh
		// system health, particles and fault schedule, exactly as a
		// real restart would.
		ropt, rerr := s.EngineOptions(chk.Check)
		if rerr != nil {
			out.Err = rerr.Error()
			return out
		}
		ropt.History = hist
		ropt.CheckpointDir = dir
		r, _, rerr2 := engine.Resume(s.System(), s.Driver(), ropt)
		if rerr2 != nil {
			out.Err = rerr2.Error()
			out.Violations = chk.Violations()
			return out
		}
		out.Result = r.Run()
	} else {
		out.Result = engine.New(s.System(), s.Driver(), opt).Run()
	}
	out.Violations = chk.Violations()
	return out
}

// NumProcs returns the scenario's total processor count.
func (s *Scenario) NumProcs() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Procs
	}
	return n
}

// --- replay encoding ------------------------------------------------

// Encode renders the scenario as the compact replay string consumed
// by Parse and `samrsim -scenario`. Floats use %g, which round-trips
// float64 exactly.
func (s *Scenario) Encode() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("seed", strconv.FormatInt(s.Seed, 10))
	add("dataset", s.Dataset)
	add("n", strconv.Itoa(s.DomainN))
	add("maxlevel", strconv.Itoa(s.MaxLevel))
	add("scheme", s.Scheme)
	gs := make([]string, len(s.Groups))
	for i, g := range s.Groups {
		gs[i] = fmt.Sprintf("%dx%g", g.Procs, g.Perf)
	}
	add("groups", strings.Join(gs, ","))
	add("wan", boolStr(s.Wan))
	add("traffic", strconv.FormatInt(s.Traffic, 10))
	add("steps", strconv.Itoa(s.Steps))
	add("gamma", fmtG(s.Gamma))
	add("eps", fmtG(s.Eps))
	add("regrid", strconv.Itoa(s.RegridInterval))
	add("gpp", strconv.Itoa(s.GridsPerProc))
	add("data", boolStr(s.WithData))
	add("forecast", boolStr(s.UseForecast))
	add("ckpt", strconv.Itoa(s.CkptInterval))
	add("cut", strconv.Itoa(s.ResumeCut))
	add("quorum", strconv.Itoa(s.Quorum))
	add("faultseed", strconv.FormatInt(s.FaultSeed, 10))
	if len(s.Faults) > 0 {
		es := make([]string, len(s.Faults))
		for i, e := range s.Faults {
			es[i] = fmt.Sprintf("%d:%s:%s:%d:%d:%d:%d:%s:%s",
				int(e.Kind), fmtG(e.Start), fmtG(e.End), e.A, e.B, e.Group, e.Proc,
				fmtG(e.Factor), fmtG(e.Prob))
		}
		add("faults", strings.Join(es, "+"))
	}
	if s.InjectBug != "" {
		add("bug", s.InjectBug)
	}
	if s.PlanCheck {
		add("plancheck", "1")
	}
	return strings.Join(parts, " ")
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Parse decodes a replay string produced by Encode. Unknown keys, and
// dataset or policy names nothing is registered under, are an error so
// typos surface instead of silently replaying a different scenario
// (Normalize would rewrite them to the defaults).
func Parse(in string) (Scenario, error) {
	s := Scenario{ResumeCut: -1}
	for _, tok := range strings.Fields(in) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return s, fmt.Errorf("scenario.Parse: malformed token %q", tok)
		}
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		case "dataset":
			s.Dataset = v
			_, err = workload.ByName(v, domainSizes[0], 0) // built only to vet the name
		case "n":
			s.DomainN, err = strconv.Atoi(v)
		case "maxlevel":
			s.MaxLevel, err = strconv.Atoi(v)
		case "scheme", "policy":
			s.Scheme = v
			_, err = dlb.NewPolicy(v) // likewise
		case "groups":
			s.Groups, err = parseGroups(v)
		case "wan":
			s.Wan = v == "1"
		case "traffic":
			s.Traffic, err = strconv.ParseInt(v, 10, 64)
		case "steps":
			s.Steps, err = strconv.Atoi(v)
		case "gamma":
			s.Gamma, err = strconv.ParseFloat(v, 64)
		case "eps":
			s.Eps, err = strconv.ParseFloat(v, 64)
		case "regrid":
			s.RegridInterval, err = strconv.Atoi(v)
		case "gpp":
			s.GridsPerProc, err = strconv.Atoi(v)
		case "data":
			s.WithData = v == "1"
		case "forecast":
			s.UseForecast = v == "1"
		case "ckpt":
			s.CkptInterval, err = strconv.Atoi(v)
		case "cut":
			s.ResumeCut, err = strconv.Atoi(v)
		case "quorum":
			s.Quorum, err = strconv.Atoi(v)
		case "faultseed":
			s.FaultSeed, err = strconv.ParseInt(v, 10, 64)
		case "faults":
			s.Faults, err = parseFaults(v)
		case "bug":
			s.InjectBug = v
		case "plancheck":
			s.PlanCheck = v == "1"
		default:
			return s, fmt.Errorf("scenario.Parse: unknown key %q", k)
		}
		if err != nil {
			return s, fmt.Errorf("scenario.Parse: %s=%q: %w", k, v, err)
		}
	}
	return s, nil
}

func parseGroups(v string) ([]GroupDef, error) {
	var out []GroupDef
	for _, part := range strings.Split(v, ",") {
		p, perf, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("group %q not NxPERF", part)
		}
		procs, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		pf, err := strconv.ParseFloat(perf, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupDef{Procs: procs, Perf: pf})
	}
	return out, nil
}

func parseFaults(v string) ([]fault.Event, error) {
	var out []fault.Event
	for _, part := range strings.Split(v, "+") {
		f := strings.Split(part, ":")
		if len(f) != 9 {
			return nil, fmt.Errorf("fault %q wants 9 fields, has %d", part, len(f))
		}
		var e fault.Event
		kind, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, err
		}
		e.Kind = fault.Kind(kind)
		if e.Start, err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, err
		}
		if e.End, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, err
		}
		if e.A, err = strconv.Atoi(f[3]); err != nil {
			return nil, err
		}
		if e.B, err = strconv.Atoi(f[4]); err != nil {
			return nil, err
		}
		if e.Group, err = strconv.Atoi(f[5]); err != nil {
			return nil, err
		}
		if e.Proc, err = strconv.Atoi(f[6]); err != nil {
			return nil, err
		}
		if e.Factor, err = strconv.ParseFloat(f[7], 64); err != nil {
			return nil, err
		}
		if e.Prob, err = strconv.ParseFloat(f[8], 64); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ReplayCommand renders the samrsim command line that reproduces the
// scenario — what a failing soak or fuzz run prints.
func ReplayCommand(s Scenario) string {
	return fmt.Sprintf("samrsim -invariants -scenario '%s'", s.Encode())
}

// --- normalisation --------------------------------------------------

var domainSizes = []int{8, 12, 16}

// Normalize clamps every field into the runnable envelope and drops
// fault events the system cannot host. It is idempotent, and both the
// generator and the shrinker funnel candidates through it, so every
// scenario that reaches Execute is well-formed by construction.
func (s *Scenario) Normalize() {
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
