// Command samrsim runs one SAMR experiment: a dataset on a system
// with a DLB scheme, printing the execution-time breakdown.
//
// Usage:
//
//	samrsim -dataset ShockPool3D -system wan -policy distributed -n 4 -steps 10
//
// The run is described by one scenario.Scenario. The run flags are
// registered from its key table and fill one in; -scenario 'key=value
// ...' — the format a failing soak or fuzz run prints — supplies the
// same thing as a string, and every other flag behaves the same either
// way. samrsim -help lists the policies and datasets; README has the
// flag ↔ spec key table.
//
// -check=ledger,data,plan,invariants arms debug oracles: the first
// three panic on divergence; the paper-invariant oracle audits every
// regrid, balancing, checkpoint and restore phase, and a violation
// exits non-zero.
//
// With -ckpt-dir the engine writes a durable checkpoint generation
// every -ckpt-interval level-0 steps; an interrupted run (crash, kill,
// or -stop-after) restarts with -resume and produces the same result
// as an uninterrupted one. A generation carries the identity of the run
// that wrote it: -resume refuses another dataset, system, policy, seed
// or threshold, while -steps, -transport and -check may change.
//
// With -data, -transport=tcp runs every simulated processor as an mpx
// rank and shards the ranks by processor group behind real localhost
// sockets; it produces results identical to the shared-memory default.
// -supervise is the multi-process mode: one worker OS process per
// processor group, each started with the canonical spec, under a
// parent that restarts crashed workers from their durable generations
// and checks that every worker reports the same result (forwardFlags
// says what the other flags do there).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/engine"
	"samrdlb/internal/invariant"
	"samrdlb/internal/metrics"
	"samrdlb/internal/scenario"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/vclock"
)

// flags holds what is not part of the run's description: what to do
// with the run, and what belongs to this process.
type flags struct {
	trace, series, resume, supervise, workerRestart                bool
	stopAfter, maxRestarts, workerShard                            int
	scenario, save, ckptDir, cpuProfile, memProfile, workerControl string
	wireTimeout                                                    time.Duration
	stdout, stderr                                                 io.Writer
	result                                                         *metrics.Result // of a single run that printed its report
}

// register declares every flag: the run flags from the scenario key
// table, filling in the returned spec, and the rest into f.
func (f *flags) register(fs *flag.FlagSet) *scenario.Scenario {
	fs.StringVar(&f.scenario, "scenario", "", "take the run's description from this 'key=value ...' spec (the format a failing soak or fuzz run prints) instead of from the run flags; -check adds to its check=")
	fs.BoolVar(&f.trace, "trace", false, "print the event trace")
	fs.BoolVar(&f.series, "series", false, "print per-step time series")
	fs.StringVar(&f.save, "save", "", "write a hierarchy checkpoint to this file after the run")
	fs.StringVar(&f.ckptDir, "ckpt-dir", "", "durable checkpoint store directory: write an on-disk generation every checkpoint interval")
	fs.BoolVar(&f.resume, "resume", false, "resume from the newest usable generation in -ckpt-dir instead of starting fresh")
	fs.IntVar(&f.stopAfter, "stop-after", -1, "exit with status 3 after this level-0 step completes (simulated crash, for resume testing)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file after the run")
	fs.BoolVar(&f.supervise, "supervise", false, "run one worker OS process per processor group under this supervising parent (requires -data); crashed workers restart from their latest durable generation in -ckpt-dir")
	fs.DurationVar(&f.wireTimeout, "wire-timeout", 5*time.Second, "read/write deadline and heartbeat pacing on every wire connection (tcp/worker transports; 0 disables)")
	fs.IntVar(&f.maxRestarts, "max-restarts", 3, "supervise: restarts allowed per worker before the run fails")
	fs.IntVar(&f.workerShard, "worker-shard", -1, "internal: run as the supervised worker hosting this processor group")
	fs.StringVar(&f.workerControl, "worker-control", "", "internal: supervisor control-channel address")
	fs.BoolVar(&f.workerRestart, "worker-restart", false, "internal: post-crash restart — run the worker without a wire, resumed from its checkpoint store")
	return scenario.RegisterFlags(fs)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return (&flags{stdout: stdout, stderr: stderr}).run(args)
}

// run is main with its exit code returned, so that the deferred profile
// flush runs on every path.
func (f *flags) run(args []string) int {
	fs := flag.NewFlagSet("samrsim", flag.ContinueOnError)
	fs.SetOutput(f.stderr)
	spec := f.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if f.cpuProfile != "" {
		pf, err := os.Create(f.cpuProfile)
		if err == nil {
			defer pf.Close()
			err = pprof.StartCPUProfile(pf)
		}
		if err != nil {
			return f.usage("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	code := f.dispatch(fs, spec)
	if f.memProfile != "" {
		pf, err := os.Create(f.memProfile)
		if err == nil {
			defer pf.Close()
			runtime.GC()
			err = pprof.WriteHeapProfile(pf)
		}
		if err != nil {
			return f.usage("-memprofile: %v", err)
		}
	}
	return code
}

// usage reports a mistyped command line: one line, exit 2.
func (f *flags) usage(format string, a ...any) int {
	fmt.Fprintf(f.stderr, "samrsim: "+format+"\n", a...)
	return 2
}

// dispatch settles where the run's description comes from, validates
// it, and hands it to the mode the flags select.
func (f *flags) dispatch(fs *flag.FlagSet, spec *scenario.Scenario) int {
	if f.scenario != "" {
		clash := ""
		fs.Visit(func(fl *flag.Flag) {
			if scenario.IsRunFlag(fl.Name) && fl.Name != "check" {
				clash = fl.Name
			}
		})
		typed, err := scenario.Parse(f.scenario)
		switch {
		case clash != "":
			return f.usage("-%s next to -scenario: the spec describes the run; say it there", clash)
		case err != nil:
			return f.usage("%v", err)
		}
		typed.Check |= spec.Check
		spec = &typed
		if f.workerShard < 0 {
			fmt.Fprintf(f.stderr, "scenario: %s\n", spec.Encode())
		}
	} else if err := spec.Validate(); err != nil { // Parse has validated a typed spec
		return f.usage("%v", err)
	}
	if f.ckptDir != "" {
		// Created the way the store will, so a bad path is one line here
		// rather than a panic in the engine.
		if err := os.MkdirAll(f.ckptDir, 0o755); err != nil {
			return f.usage("-ckpt-dir: %v", err)
		}
	}
	switch {
	case f.workerShard >= 0:
		return runWorker(f, spec)
	case f.supervise:
		args, err := workerArgs(fs, spec)
		if err != nil {
			return f.usage("%v", err)
		}
		return runSupervisor(f, spec, args)
	case f.resume && f.ckptDir == "":
		return f.usage("-resume: -ckpt-dir is required")
	}
	return runOne(f, spec)
}

// attach returns the per-process half of the engine options — what the
// flags say that the spec does not — and the invariant checker, if the
// spec arms one. more adds the mode's own attachments.
func (f *flags) attach(spec *scenario.Scenario, more func(*engine.Options)) (func(*engine.Options), *invariant.Checker) {
	pool := solver.NewPool(0)
	var checker *invariant.Checker
	if spec.Check&scenario.CheckInvariants != 0 {
		// Rule scoping follows the policy's registered traits:
		// structural rules always on, paper-specific rules only where
		// the policy promises them.
		checker = invariant.NewForPolicy(spec.Scheme)
	}
	return func(o *engine.Options) {
		o.Pool = pool
		o.WireTimeout = f.wireTimeout
		if f.ckptDir != "" {
			o.Checkpoints = ckpt.OSDir(f.ckptDir)
		}
		if checker != nil {
			o.Invariants = checker.Check
		}
		more(o)
	}, checker
}

// runOne is the single in-process run with its full report.
func runOne(f *flags, spec *scenario.Scenario) int {
	// A trace and a history are attached only when they will be printed:
	// both are nil-safe, and the default run then grows neither.
	var tr *trace.Recorder
	if f.trace {
		tr = trace.New()
	}
	var hist *metrics.History
	if f.series {
		hist = metrics.NewHistory()
	}
	// A run that ends after a step has written the same generations as
	// one that crashes there (the engine's resume pins are built so),
	// which makes -stop-after a shorter run with another exit code.
	stops := f.stopAfter >= 0 && f.stopAfter < spec.Steps
	attach, checker := f.attach(spec, func(o *engine.Options) {
		o.Trace, o.History = tr, hist
		if stops {
			o.Steps = f.stopAfter + 1
		}
	})
	runner, report, err := spec.Start(f.resume, attach)
	if err != nil {
		fmt.Fprintf(f.stderr, "samrsim: %v\n", err)
		return 1
	}
	if report != nil {
		for _, sk := range report.Skipped {
			fmt.Fprintf(f.stderr, "resume: skipped generation %d (%s): %s\n", sk.Gen, sk.File, sk.Reason)
		}
		fmt.Fprintf(f.stderr, "resume: restored generation %d (step %d, t=%.4f)\n",
			report.Gen, report.Step, report.SimTime)
	}
	res := runner.Run()
	if stops {
		fmt.Fprintf(f.stderr, "interrupted after step %d (simulated crash)\n", f.stopAfter)
		return 3
	}
	if checker != nil {
		if err := checker.Err(); err != nil {
			fmt.Fprintf(f.stderr, "invariants: %v\n", err)
			return 1
		}
		fmt.Fprintln(f.stderr, "invariants: every checked phase held")
	}

	f.result = res
	out := f.stdout
	fmt.Fprintf(out, "%s\n\n", res)
	tbl := metrics.NewTable("Breakdown (seconds)", "phase", "time", "share%")
	for p := 0; p < vclock.NumPhases; p++ {
		tbl.AddRow(vclock.Phase(p).String(), res.Breakdown[p], 100*res.Breakdown[p]/res.Total)
	}
	fmt.Fprint(out, tbl.String())
	fmt.Fprintf(out, "\nglobal gain/cost evaluations: %d, redistributions: %d, local migrations: %d\n",
		res.GlobalEvals, res.GlobalRedists, res.LocalMigrations)
	fmt.Fprint(out, runner.Hierarchy().Summarize())
	fmt.Fprintf(out, "peak cells (all levels): %d, utilisation: %.2f\n", res.MaxCells, res.Utilisation)
	fmt.Fprintf(out, "load ledger: %d incremental events, %d full rebuilds\n", res.LedgerEvents, res.LedgerRebuilds)
	if s := res.CheckpointSummary(); s != "" {
		fmt.Fprintln(out, s)
	}
	if s := res.TransportSummary(); s != "" {
		fmt.Fprintln(out, s)
	}
	if res.Faulty() {
		fmt.Fprintf(out, "\nFault injection summary:\n%s", res.FaultSummary())
	}
	if f.save != "" {
		sf, err := os.Create(f.save)
		if err == nil {
			err = errors.Join(runner.Hierarchy().Save(sf), sf.Close())
		}
		if err != nil {
			fmt.Fprintf(f.stderr, "checkpoint: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "\ncheckpoint written to %s\n", f.save)
	}
	if f.series {
		fmt.Fprintln(out, "\nPer-step series:")
		fmt.Fprint(out, hist.String())
	}
	if f.trace {
		fmt.Fprintln(out, "\nEvent trace:")
		fmt.Fprint(out, tr.String())
	}
	return 0
}
