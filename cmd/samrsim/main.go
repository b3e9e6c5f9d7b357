// Command samrsim runs one SAMR experiment: a dataset on a system
// with a DLB scheme, printing the execution-time breakdown.
//
// Usage:
//
//	samrsim -dataset ShockPool3D -system wan -policy distributed -n 4 -steps 10
//
// -policy selects the balancer from the policy table in internal/dlb
// and -dataset the workload from the name table in internal/workload;
// samrsim -help lists both.
// -tournament instead runs the seeded policy ablation — every
// registered policy on identical scenario envelopes — printing a
// markdown comparison report, with -bench-out writing the
// deterministic per-policy metrics JSON:
//
//	samrsim -tournament -tournament-scenarios 20 -bench-out BENCH_policy.json
//
// With -ckpt-dir the engine writes a durable checkpoint generation
// every -ckpt-interval level-0 steps; an interrupted run (crash, kill,
// or -stop-after) restarts with -resume and produces the same result
// as an uninterrupted one.
//
// With -invariants the paper-invariant oracle (internal/invariant)
// audits every regrid, balancing, checkpoint and restore phase; any
// violation is printed and the run exits non-zero. -scenario replays
// a property-harness scenario string — the format printed by a
// failing soak or fuzz run — end to end under the oracle:
//
//	samrsim -invariants -scenario 'seed=42 dataset=ShockPool3D n=8 ... bug=colocation'
//
// With -data, -transport selects how rank messages travel: "loopback"
// runs every simulated processor as an mpx rank in one in-process
// world, "tcp" additionally shards the world by processor group behind
// real localhost sockets (CRC32-framed wire messages). Both produce
// results identical to the shared-memory default; the netsim link
// model stays the timing authority. -supervise is the multi-process
// mode: one worker OS process per processor group under a supervising
// parent that restarts crashed workers from their durable generations
// and checks that every worker reports the same result.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/exp"
	"samrdlb/internal/fault"
	"samrdlb/internal/invariant"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/scenario"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

func main() {
	var (
		dataset   = flag.String("dataset", "ShockPool3D", strings.Join(workload.Names(), " | "))
		system    = flag.String("system", "wan", "wan | lan | origin (single machine)")
		policy    = flag.String("policy", "distributed", "balancer policy: "+strings.Join(dlb.PolicyNames(), " | ")+" (or an alias)")
		tourney   = flag.Bool("tournament", false, "run the policy ablation tournament instead of a single run: every registered policy on the same seeded scenario envelopes, printing a markdown comparison report")
		tourneyN  = flag.Int("tournament-scenarios", 20, "tournament: number of generated scenario envelopes per policy")
		tourneySd = flag.Int64("tournament-seed", 40000, "tournament: first scenario-generator seed")
		benchOut  = flag.String("bench-out", "", "tournament: write the deterministic per-policy metrics JSON (BENCH_policy.json) to this file")
		n         = flag.Int("n", 4, "processors per group (origin: total)")
		steps     = flag.Int("steps", 10, "level-0 time steps")
		maxLevel  = flag.Int("maxlevel", 2, "deepest refinement level")
		domainN   = flag.Int("domain", 32, "level-0 domain cells per side")
		seed      = flag.Int64("seed", 42, "workload and traffic seed")
		gamma     = flag.Float64("gamma", 0, "gain/cost threshold (0 = default 2.0)")
		withData  = flag.Bool("data", false, "carry and advance real field data")
		traceOut  = flag.Bool("trace", false, "print the event trace")
		series    = flag.Bool("series", false, "print per-step time series")
		saveTo    = flag.String("save", "", "write a hierarchy checkpoint to this file after the run")
		faultsIn  = flag.String("faults", "", "fault script file (see internal/fault): enables fault injection")
		faultSd   = flag.Int64("faultseed", 0, "fault schedule seed (0 = use -seed)")
		ckptIval  = flag.Int("ckpt-interval", 0, "level-0 steps between recovery checkpoints (0 = default 4)")
		ckptDir   = flag.String("ckpt-dir", "", "durable checkpoint store directory: write an on-disk generation every checkpoint interval")
		ckptKeep  = flag.Int("ckpt-keep", 0, "on-disk generations to retain (0 = default 3)")
		resume    = flag.Bool("resume", false, "resume from the newest usable generation in -ckpt-dir instead of starting fresh")
		stopAftr  = flag.Int("stop-after", -1, "exit with status 3 after this level-0 step completes (simulated crash, for resume testing)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file after the run")
		ledCheck  = flag.Bool("ledgercheck", false, "verify the incremental load ledger against a full recomputation after every hierarchy mutation (slow; debug oracle)")
		datCheck  = flag.Bool("datacheck", false, "verify every planned ghost fill and restriction against the scan-based baseline, bit for bit (slow; debug oracle)")
		plnCheck  = flag.Bool("plancheck", false, "verify every served exchange plan against the O(n²) scan planners, bit for bit (slow; debug oracle)")
		invCheck  = flag.Bool("invariants", false, "audit every phase with the paper-invariant oracle; violations exit non-zero")
		scenSpec  = flag.String("scenario", "", "replay a property-harness scenario string under the invariant oracle (overrides the other run flags)")
		quorum    = flag.Int("quorum", 0, "per-group minimum of admitted processors before the group degrades to local-only balancing (0 = default 1)")
		recReport = flag.Bool("recovery-report", false, "print the retry/backoff/suspicion and rejoin counters after the run")
		transport = flag.String("transport", "", "rank-message transport with -data: loopback (in-process mpx world) | tcp (one shard per group over localhost sockets); empty = shared-memory data path")
		superv    = flag.Bool("supervise", false, "run one worker OS process per processor group under this supervising parent (requires -data); crashed workers restart from their latest durable generation in -ckpt-dir")
		wireTO    = flag.Duration("wire-timeout", 5*time.Second, "read/write deadline and heartbeat pacing on every wire connection (tcp/worker transports; 0 disables)")
		maxRst    = flag.Int("max-restarts", 3, "supervise: restarts allowed per worker before the run fails")
		wrkShard  = flag.Int("worker-shard", -1, "internal: run as the supervised worker hosting this processor group")
		wrkCtrl   = flag.String("worker-control", "", "internal: supervisor control-channel address")
		wrkDet    = flag.Bool("worker-detached", false, "internal: run the worker without a wire (post-crash restart)")
		wrkRes    = flag.Bool("worker-resume", false, "internal: resume the worker from its checkpoint store")
	)
	flag.Parse()

	if *tourney {
		os.Exit(runTournament(*tourneyN, *tourneySd, *benchOut))
	}
	if *scenSpec != "" {
		os.Exit(runScenario(*scenSpec, *plnCheck))
	}
	if err := checkConfig(*n, *maxLevel, *domainN, *ckptDir); err != nil {
		fmt.Fprintln(os.Stderr, "samrsim:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	driver, err := workload.ByName(*dataset, *domainN, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	traffic := &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15, Seed: *seed}
	var sys *machine.System
	switch *system {
	case "wan":
		sys = machine.WanPair(*n, traffic)
	case "lan":
		sys = machine.LanPair(*n, traffic)
	case "origin":
		sys = machine.Origin2000("ANL", *n)
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}

	bal, err := dlb.NewPolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "policy: %v\n", err)
		os.Exit(2)
	}

	var sched *fault.Schedule
	if *faultsIn != "" {
		f, err := os.Open(*faultsIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(2)
		}
		events, err := fault.ParseScript(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(2)
		}
		fseed := *faultSd
		if fseed == 0 {
			fseed = *seed
		}
		sched, err = fault.NewSchedule(fseed, events...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(2)
		}
		if err := sched.Validate(sys.NumProcs(), sys.NumGroups()); err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(2)
		}
	}

	// A trace and a history are attached only when they will be printed:
	// both are nil-safe, and the default run then grows neither.
	var tr *trace.Recorder
	if *traceOut {
		tr = trace.New()
	}
	var hist *metrics.History
	if *series {
		hist = metrics.NewHistory()
	}
	opt := engine.Options{
		Steps:              *steps,
		Balancer:           bal,
		Gamma:              *gamma,
		MaxLevel:           *maxLevel,
		WithData:           *withData,
		Pool:               solver.NewPool(0),
		Trace:              tr,
		History:            hist,
		Faults:             sched,
		GroupQuorum:        *quorum,
		CheckpointInterval: *ckptIval,
		CheckpointDir:      *ckptDir,
		CheckpointKeep:     *ckptKeep,
		LedgerCheck:        *ledCheck,
		DataCheck:          *datCheck,
		PlanCheck:          *plnCheck,
	}
	opt.WireTimeout = *wireTO
	switch *transport {
	case "":
	case engine.TransportLoopback, engine.TransportTCP:
		if !*withData {
			fmt.Fprintln(os.Stderr, "transport: -transport requires -data (rank messages carry field data)")
			os.Exit(2)
		}
		opt.UseMPX = true
		opt.Transport = *transport
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", *transport)
		os.Exit(2)
	}

	// The hidden worker branch comes before -supervise: a worker is
	// spawned with the supervisor's full argv (including -supervise)
	// plus the worker flags, and must never recurse into supervising.
	if *wrkShard >= 0 {
		if !*withData {
			fmt.Fprintln(os.Stderr, "worker: supervised workers require -data")
			os.Exit(2)
		}
		os.Exit(runWorkerMode(sys, driver, opt, *wrkShard, *wrkCtrl, *wrkDet, *wrkRes, *wireTO))
	}
	if *superv {
		switch {
		case !*withData:
			fmt.Fprintln(os.Stderr, "supervise: -supervise requires -data (worker shards carry field data)")
			os.Exit(2)
		case *datCheck:
			fmt.Fprintln(os.Stderr, "supervise: -datacheck is data-dependent and forbidden on worker shards")
			os.Exit(2)
		}
		os.Exit(runSupervisor(sys, sched, *wireTO, *maxRst))
	}
	var checker *invariant.Checker
	if *invCheck {
		// Rule scoping follows the policy's registered traits:
		// structural rules always on, paper-specific rules only where
		// the policy promises them.
		checker = invariant.NewForPolicy(*policy)
		opt.Invariants = checker.Check
	}
	if *stopAftr >= 0 {
		// The durable generation for this boundary (if due) is written
		// before AfterStep fires, so exiting here models a crash whose
		// latest checkpoint is already safely on disk.
		stop := *stopAftr
		opt.AfterStep = func(step int, r *engine.Runner) {
			if step >= stop {
				fmt.Fprintf(os.Stderr, "interrupted after step %d (simulated crash)\n", step)
				os.Exit(3)
			}
		}
	}
	var runner *engine.Runner
	if *resume {
		if *ckptDir == "" {
			fmt.Fprintln(os.Stderr, "resume: -ckpt-dir is required")
			os.Exit(2)
		}
		var report *ckpt.RestoreReport
		var err error
		runner, report, err = engine.Resume(sys, driver, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
			os.Exit(1)
		}
		for _, sk := range report.Skipped {
			fmt.Fprintf(os.Stderr, "resume: skipped generation %d (%s): %s\n", sk.Gen, sk.File, sk.Reason)
		}
		fmt.Fprintf(os.Stderr, "resume: restored generation %d (step %d, t=%.4f)\n",
			report.Gen, report.Step, report.SimTime)
	} else {
		runner = engine.New(sys, driver, opt)
	}
	res := runner.Run()

	if checker != nil {
		if err := checker.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "invariants: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "invariants: every checked phase held")
	}

	fmt.Printf("%s\n\n", res)
	tbl := metrics.NewTable("Breakdown (seconds)", "phase", "time", "share%")
	for p := 0; p < vclock.NumPhases; p++ {
		tbl.AddRow(vclock.Phase(p).String(), res.Breakdown[p], 100*res.Breakdown[p]/res.Total)
	}
	fmt.Print(tbl.String())
	fmt.Printf("\nglobal gain/cost evaluations: %d, redistributions: %d, local migrations: %d\n",
		res.GlobalEvals, res.GlobalRedists, res.LocalMigrations)
	fmt.Print(runner.Hierarchy().Summarize())
	fmt.Printf("peak cells (all levels): %d, utilisation: %.2f\n", res.MaxCells, res.Utilisation)
	fmt.Printf("load ledger: %d incremental events, %d full rebuilds\n", res.LedgerEvents, res.LedgerRebuilds)
	if s := res.CheckpointSummary(); s != "" {
		fmt.Println(s)
	}
	if s := res.TransportSummary(); s != "" {
		fmt.Println(s)
	}
	if res.Faulty() {
		fmt.Printf("\nFault injection summary:\n%s", res.FaultSummary())
	}
	if *recReport {
		if s := res.RecoveryReport(); s != "" {
			fmt.Printf("\nRecovery report:\n%s", s)
		} else {
			fmt.Println("\nRecovery report: no retries, suspicion or rejoins")
		}
	}

	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			os.Exit(1)
		}
		if err := runner.Hierarchy().Save(f); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\ncheckpoint written to %s\n", *saveTo)
	}

	if *series {
		fmt.Println("\nPer-step series:")
		fmt.Print(hist.String())
	}
	if *traceOut {
		fmt.Println("\nEvent trace:")
		fmt.Print(tr.String())
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
		f.Close()
	}
}

// checkConfig rejects the flag values the constructors would panic on
// and creates the checkpoint directory the way the store will, so a
// mistyped run is one line and exit 2 instead of a goroutine dump.
func checkConfig(n, maxLevel, domainN int, ckptDir string) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n %d: a group needs at least one processor", n)
	case maxLevel < 0:
		return fmt.Errorf("-maxlevel %d: the deepest level cannot be negative", maxLevel)
	case domainN < 1:
		return fmt.Errorf("-domain %d: the level-0 domain needs at least one cell per side", domainN)
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return fmt.Errorf("-ckpt-dir: %w", err)
		}
	}
	return nil
}

// runTournament runs the policy ablation tournament: every registered
// balancer policy on the same n seeded scenario envelopes (starting at
// seed0), printing the markdown comparison report and optionally
// writing the deterministic per-policy metrics JSON. Returns the
// process exit code: 0 when every run held its scoped invariants, 1
// when any policy recorded failures, 2 on setup errors.
func runTournament(n int, seed0 int64, benchOut string) int {
	tour, err := exp.RunTournament(exp.TournamentOptions{Scenarios: n, Seed0: seed0})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tournament: %v\n", err)
		return 2
	}
	fmt.Print(tour.Markdown())
	if benchOut != "" {
		data, jerr := tour.BenchJSON()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "tournament: %v\n", jerr)
			return 2
		}
		if werr := os.WriteFile(benchOut, data, 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "tournament: %v\n", werr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "tournament: wrote %s\n", benchOut)
	}
	for _, s := range tour.Scores {
		if s.Failures > 0 {
			fmt.Fprintf(os.Stderr, "tournament: policy %s recorded %d failing envelope(s)\n", s.Policy, s.Failures)
			return 1
		}
	}
	return 0
}

// runScenario replays a property-harness scenario string (the replay
// format printed by failing soak/fuzz runs) under the invariant
// oracle. Returns the process exit code: 0 when every invariant held,
// 1 on violations or execution failure, 2 on a malformed spec.
func runScenario(spec string, planCheck bool) int {
	sc, err := scenario.Parse(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		return 2
	}
	sc.Normalize()
	if planCheck {
		sc.PlanCheck = true
	}
	fmt.Printf("scenario: %s\n", sc.Encode())
	out := sc.Execute()
	if out.Result != nil {
		fmt.Printf("%s\n", out.Result)
	}
	if out.Failed() {
		fmt.Fprintf(os.Stderr, "scenario failed: %s\n", out.Summary())
		return 1
	}
	fmt.Println("scenario ok: all paper invariants held")
	return 0
}
