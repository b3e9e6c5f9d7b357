package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"samrdlb/internal/amr"
	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/exp"
	"samrdlb/internal/invariant"
	"samrdlb/internal/metrics"
	"samrdlb/internal/scenario"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/vclock"
)

// repSpec is what the parent asks one child process to do: one rep of
// one workload (the whole op, start to finish, in a fresh process).
type repSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke"`
	Variant  string `json:"variant"`
	// Traced attaches the decorators, runs the layer probes and writes
	// the spans to SpansPath.
	Traced    bool   `json:"traced"`
	SpansPath string `json:"spans_path"`
}

func (s repSpec) sizing() sizing { return sizingFor(s.Smoke) }

// repResult is what the child reports back: one JSON line on stdout.
type repResult struct {
	// OpStartUnixNano is the wall-clock instant set-up ended and the
	// measured run began; the parent subtracts the instant it spawned
	// the child to get setup_s (process start, input construction and,
	// for single-run workloads, engine.New).
	OpStartUnixNano int64   `json:"op_start_unix_nano"`
	RunWallS        float64 `json:"run_wall_s"`
	// Runs is the engine runs the op made; FailedRuns those that
	// failed inside the program (tournament failures).
	Runs       int `json:"runs"`
	FailedRuns int `json:"failed_runs"`
	// VirtualTotalS sums metrics.Result.Total over the op's runs.
	VirtualTotalS float64 `json:"virtual_total_s"`
	// Fingerprint renders every run's Result (transport counters
	// zeroed: heartbeat frames are paced by wall time); Checksum folds
	// the final hierarchy's structure and level-0 field values.
	Fingerprint string `json:"fingerprint"`
	Checksum    string `json:"checksum"`
	// CellUpdates is the exact count of cells advanced over all level
	// steps; LevelSteps the level steps (single-run workloads).
	CellUpdates int64 `json:"cell_updates"`
	LevelSteps  int64 `json:"level_steps"`
	// AllocMB and MallocsK are MemStats deltas across set-up and run.
	AllocMB  float64 `json:"alloc_mb"`
	MallocsK float64 `json:"mallocs_k"`
	// DLBImprovementPct is Figure 7's mean improvement (paper-fig7).
	DLBImprovementPct float64 `json:"dlb_improvement_pct"`
	// Failures lists the output checks this rep failed, by letter.
	Failures []string `json:"failures"`
	// Layers holds the per-layer metrics of a traced rep.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *repResult) fail(check, format string, args ...any) {
	r.Failures = append(r.Failures, check+": "+fmt.Sprintf(format, args...))
}

// childMain runs one rep and prints its result. A panic anywhere in
// the program under test is reported as a failed rep, not a crash.
func childMain(spec repSpec) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := &repResult{Layers: map[string]float64{}}
	var rec *recorder
	if spec.Traced {
		rec = newRecorder()
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.fail("panic", "%v", p)
			}
		}()
		def := findWorkload(spec.Workload)
		switch {
		case def == nil:
			res.fail("spec", "unknown workload %q", spec.Workload)
		case def.single:
			runSingleRep(res, spec, rec, &m1)
		case spec.Workload == "paper-fig7":
			runFig7Rep(res, spec, rec, &m1)
		default:
			runCampaignRep(res, spec, rec, &m1)
		}
	}()
	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	res.MallocsK = float64(m1.Mallocs-m0.Mallocs) / 1e3
	if !spec.Traced {
		res.Layers = nil
	} else if spec.SpansPath != "" {
		res.Layers["bench.spans"] = float64(len(rec.spans))
		if err := rec.writeJSONL(spec.SpansPath); err != nil {
			res.fail("spans", "%v", err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// fingerprint renders a Result for equality checks with the transport
// counters zeroed: frame and byte counts include heartbeats paced by
// wall time, and the shared-memory reference of check (c) has none.
func fingerprint(r *metrics.Result) string {
	c := *r
	c.TransportFaults, c.TransportFallbacks = 0, 0
	c.TransportFrames, c.TransportBytes, c.TransportTimeouts = 0, 0, 0
	return fmt.Sprintf("%+v", c)
}

// engineRun is one engine run made by the benchmark itself.
type engineRun struct {
	cfg    singleConfig // as given: undecorated driver and balancer
	runner *engine.Runner
	result *metrics.Result
	wallS  float64
	cells  int64 // cells advanced, summed over level steps
	steps  int64 // level steps
	tracer *runTracer
}

// runEngine builds and runs c, decorated when rec is non-nil.
// opStart, when non-nil, receives the instant between engine.New and
// Run — the end of set-up.
func runEngine(c singleConfig, rec *recorder, opStart *time.Time) engineRun {
	out := engineRun{cfg: c}
	count := func(_ int, r *engine.Runner) {
		h := r.Hierarchy()
		mult := int64(1)
		for l := 0; l <= h.MaxLevel; l++ {
			if len(h.Grids(l)) > 0 {
				out.cells += r.Ledger().LevelCells(l) * mult
				out.steps += mult
			}
			mult *= int64(h.RefFactor)
		}
	}
	c.opt.AfterStep = count
	if rec != nil {
		t := newRunTracer(rec)
		out.tracer = t
		c.driver = tracedDriver{Driver: c.driver, t: t}
		c.opt.Balancer = tracedBalancer{Balancer: c.opt.Balancer, t: t}
		c.opt.Invariants = t.invariants(c.opt.Invariants)
		c.opt.AfterStep = func(s int, r *engine.Runner) {
			t.afterStep(s, r)
			count(s, r)
		}
	}
	out.runner = engine.New(c.sys, c.driver, c.opt)
	if out.tracer != nil {
		out.tracer.attach(out.runner)
	}
	start := time.Now()
	if opStart != nil {
		*opStart = start
	}
	if out.tracer != nil {
		out.tracer.begin()
	}
	out.result = out.runner.Run()
	out.wallS = time.Since(start).Seconds()
	if out.tracer != nil {
		out.tracer.finish()
	}
	return out
}

// runSingleRep is one rep of a single-run workload, with engine
// options attached the way cmd/samrsim attaches them (pool, event
// trace, per-step history) because that is what users' runs pay for.
func runSingleRep(res *repResult, spec repSpec, rec *recorder, mEnd *runtime.MemStats) {
	sz := spec.sizing()
	c := buildSingle(spec.Workload, spec.Seed, sz, spec.Variant)
	c.opt.Pool = solver.NewPool(0)
	c.opt.Trace = trace.New()
	c.opt.History = metrics.NewHistory()
	var opStart time.Time
	run := runEngine(c, rec, &opStart)
	runtime.ReadMemStats(mEnd)

	res.OpStartUnixNano = opStart.UnixNano()
	res.RunWallS = run.wallS
	res.Runs = 1
	res.VirtualTotalS = run.result.Total
	res.Fingerprint = fingerprint(run.result)
	res.CellUpdates, res.LevelSteps = run.cells, run.steps
	res.Checksum = checkEndState(res, run.runner)
	if c.opt.Transport == engine.TransportTCP && run.result.TransportFallbacks != 0 {
		res.fail("c", "%d wire phases fell back to the in-memory path", run.result.TransportFallbacks)
	}
	if rec == nil {
		return
	}
	inRunLayers(res.Layers, rec, []engineRun{run})
	vclockShares(res.Layers, []*metrics.Result{run.result})
	res.Layers["mpx.frames"] = float64(run.result.TransportFrames)
	res.Layers["mpx.wire_bytes"] = float64(run.result.TransportBytes)
	res.Layers["mpx.timeouts"] = float64(run.result.TransportTimeouts)
	res.Layers["mpx.fallbacks"] = float64(run.result.TransportFallbacks)
	runProbes(res.Layers, run, spec.Seed, sz.probeCalls)
}

// checkEndState applies output checks (b) and (d) to a finished run
// and returns its end-state checksum.
func checkEndState(res *repResult, r *engine.Runner) string {
	h := r.Hierarchy()
	if err := h.CheckProperNesting(); err != nil {
		res.fail("b", "proper nesting: %v", err)
	}
	if err := r.Ledger().Verify(); err != nil {
		res.fail("b", "ledger: %v", err)
	}
	sum, finite := hierarchyChecksum(h)
	if !finite {
		res.fail("d", "a field value is not finite at end of run")
	}
	return fmt.Sprintf("%016x", sum)
}

// hierarchyChecksum folds every grid's level, box and owner and, where
// the hierarchy carries data, each level-0 field's interior sum and
// maximum (bit patterns) into one hash. finite is false when any
// field on any level holds a NaN or an infinity.
func hierarchyChecksum(h *amr.Hierarchy) (sum uint64, finite bool) {
	hash := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		hash.Write(b[:])
	}
	finite = true
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			put(uint64(l))
			for d := 0; d < 3; d++ {
				put(uint64(int64(g.Box.Lo[d])))
				put(uint64(int64(g.Box.Hi[d])))
			}
			put(uint64(int64(g.Owner)))
			if g.Patch == nil {
				continue
			}
			for _, f := range h.Fields {
				s, m := g.Patch.Sum(f), g.Patch.MaxAbs(f)
				if math.IsNaN(s) || math.IsInf(s, 0) || math.IsInf(m, 0) {
					finite = false
				}
				if l == 0 {
					put(math.Float64bits(s))
					put(math.Float64bits(m))
				}
			}
		}
	}
	return hash.Sum64(), finite
}

// vclockShares reports where the virtual time of the runs went, to
// read beside the wall-clock shares.
func vclockShares(layers map[string]float64, results []*metrics.Result) {
	var total, compute, comm, overhead float64
	for _, r := range results {
		total += r.Total
		compute += r.Compute()
		comm += r.Comm()
		overhead += r.Overhead() + r.Breakdown[vclock.Recovery]
	}
	if total > 0 {
		layers["vclock.compute_share"] = compute / total
		layers["vclock.comm_share"] = comm / total
		layers["vclock.overhead_share"] = overhead / total
	}
}

// runFig7Rep is one rep of paper-fig7: both Figure 7 sweeps through
// internal/exp, which is how sweeps are actually run.
func runFig7Rep(res *repResult, spec repSpec, rec *recorder, mEnd *runtime.MemStats) {
	sz := spec.sizing()
	start := time.Now()
	res.OpStartUnixNano = start.UnixNano()
	amrRows := exp.Fig7("AMR64", fig7Options("AMR64", spec.Seed, sz))
	amrS := time.Since(start).Seconds()
	shockRows := exp.Fig7("ShockPool3D", fig7Options("ShockPool3D", spec.Seed, sz))
	res.RunWallS = time.Since(start).Seconds()
	runtime.ReadMemStats(mEnd)

	var results []*metrics.Result
	for _, rows := range [][]exp.Fig7Row{amrRows, shockRows} {
		for _, row := range rows {
			results = append(results, row.ParallelResult, row.DistributedResult)
		}
	}
	for _, r := range results {
		res.Runs++
		res.VirtualTotalS += r.Total
		res.Fingerprint += fingerprint(r) + "\n"
	}
	checkImprovement(res, exp.AvgImprovement(amrRows), exp.AvgImprovement(shockRows))
	if rec == nil {
		return
	}
	res.Layers["exp.fig7_amr64_s"] = amrS
	res.Layers["exp.fig7_shock_s"] = res.RunWallS - amrS
	res.Layers["exp.dlb_improvement_pct"] = res.DLBImprovementPct
	vclockShares(res.Layers, results)

	// The decorated engine rep: the sweep's largest run, plain before
	// and after the decorated one so that warm-up drift cancels out of
	// the overhead (the run is a tenth of a second).
	plain := runEngine(fig7LargestConfig(spec.Seed, sz), nil, nil)
	traced := runEngine(fig7LargestConfig(spec.Seed, sz), rec, nil)
	again := runEngine(fig7LargestConfig(spec.Seed, sz), nil, nil)
	want := fingerprint(shockRows[len(shockRows)-1].ParallelResult)
	if got := fingerprint(plain.result); got != want {
		res.fail("g", "bench's copy of the sweep's largest run drifted from internal/exp:\n  exp:   %s\n  bench: %s", want, got)
	}
	if got := fingerprint(traced.result); got != want {
		res.fail("g", "decorated run differs from the undecorated one:\n  plain:  %s\n  traced: %s", want, got)
	}
	checkEndState(res, traced.runner)
	res.CellUpdates, res.LevelSteps = traced.cells, traced.steps
	inRunLayers(res.Layers, rec, []engineRun{traced})
	res.Layers["bench.trace_overhead_pct"] = 100 * (2*traced.wallS/(plain.wallS+again.wallS) - 1)
	runProbes(res.Layers, traced, spec.Seed, sz.probeCalls)
}

// checkImprovement is output check (e): Figure 7's claim, that the
// distributed scheme beats the parallel one on average, must hold on
// both datasets. It records the mean of the two improvements.
func checkImprovement(res *repResult, amr64, shock float64) {
	res.DLBImprovementPct = (amr64 + shock) / 2
	if amr64 <= 0 || shock <= 0 {
		res.fail("e", "distributed DLB does not beat parallel DLB on average (AMR64 %.2f%%, ShockPool3D %.2f%%)", amr64, shock)
	}
}

// scoreTournament folds the policy scores into the rep and applies
// output check (f): no envelope may fail under any policy (the
// policy-scoped invariant oracle runs inside every one).
func scoreTournament(res *repResult, scores []exp.PolicyScore) {
	for _, s := range scores {
		res.Runs += s.Runs
		res.FailedRuns += s.Failures
		res.VirtualTotalS += s.MeanTotal * float64(s.Runs-s.Failures)
		if s.Failures > 0 {
			res.fail("f", "policy %s failed %d of %d envelopes", s.Policy, s.Failures, s.Runs)
		}
	}
}

// runCampaignRep is one rep of campaign: the policy tournament, every
// registered policy on the same seeded scenario envelopes.
func runCampaignRep(res *repResult, spec repSpec, rec *recorder, mEnd *runtime.MemStats) {
	sz := spec.sizing()
	o := campaignOptions(spec.Seed, sz)
	start := time.Now()
	res.OpStartUnixNano = start.UnixNano()
	tour, err := exp.RunTournament(o)
	res.RunWallS = time.Since(start).Seconds()
	runtime.ReadMemStats(mEnd)
	if err != nil {
		res.fail("f", "tournament: %v", err)
		return
	}
	scoreTournament(res, tour.Scores)
	js, err := tour.BenchJSON()
	if err != nil {
		res.fail("f", "tournament JSON: %v", err)
	}
	res.Fingerprint = string(js)
	if rec == nil {
		return
	}
	for _, s := range tour.Scores {
		res.Layers["exp.policy_wall_s."+s.Policy] = s.WallSeconds
	}
	tracedCampaign(res, spec, rec, tour)
}

// tracedCampaign repeats the tournament's loop from here so that each
// scenario execution gets its own span, decorating the engine runs it
// can build through the scenario's public seams (the scenarios without
// a resume cut; the others go through Scenario.Execute undecorated).
// Its per-policy mean virtual time must equal the tournament's.
func tracedCampaign(res *repResult, spec repSpec, rec *recorder, tour *exp.Tournament) {
	sz := spec.sizing()
	o := campaignOptions(spec.Seed, sz)
	var runs []engineRun
	var results []*metrics.Result
	var execMS []float64
	start := time.Now()
	for _, policy := range dlb.PolicyNames() {
		var totalSum float64
		scored := 0
		for i := 0; i < o.Scenarios; i++ {
			s := scenario.Generate(o.Seed0 + int64(i))
			s.Scheme = policy
			s.Normalize()
			t0 := rec.now()
			result, run := executeTraced(s, rec)
			t1 := rec.now()
			rec.add(spanExec, t0, t1)
			execMS = append(execMS, float64(t1-t0)/1e6)
			if run != nil {
				runs = append(runs, *run)
			}
			if result != nil {
				totalSum += result.Total
				scored++
				results = append(results, result)
			}
		}
		for _, sc := range tour.Scores {
			if sc.Policy != policy {
				continue
			}
			if scored != sc.Runs-sc.Failures || (scored > 0 && totalSum/float64(scored) != sc.MeanTotal) {
				res.fail("g", "policy %s: traced loop scored %d runs, mean total %v; tournament %d runs, mean total %v",
					policy, scored, totalSum/float64(max(scored, 1)), sc.Runs-sc.Failures, sc.MeanTotal)
			}
		}
	}
	tracedWall := time.Since(start).Seconds()
	res.Layers["bench.trace_overhead_pct"] = 100 * (tracedWall/res.RunWallS - 1)
	p, v := tailPercentile(execMS)
	res.Layers["scenario.exec_p50_ms"] = median(execMS)
	res.Layers["scenario.exec_tail_ms"] = v
	res.Layers["scenario.exec_tail_pct"] = float64(p)
	res.Layers["scenario.exec_n"] = float64(len(execMS))
	for _, r := range runs {
		res.CellUpdates += r.cells
		res.LevelSteps += r.steps
	}
	inRunLayers(res.Layers, rec, runs)
	vclockShares(res.Layers, results)
	if len(runs) > 0 {
		runProbes(res.Layers, runs[len(runs)-1], spec.Seed, sz.probeCalls)
	}
}

// executeTraced runs one scenario under its policy-scoped invariant
// oracle, like Scenario.Execute. A scenario with a resume cut runs
// through Execute itself (its two legs are built inside); the others
// are built here from the scenario's public parts so the engine run
// can be decorated. It returns the Result of a run that held every
// invariant (nil otherwise) and the decorated run, if any.
func executeTraced(s scenario.Scenario, rec *recorder) (result *metrics.Result, run *engineRun) {
	if s.ResumeCut >= 0 {
		out := s.ExecuteWithHistory(metrics.NewHistory())
		if out.Failed() {
			return nil, nil
		}
		return out.Result, nil
	}
	defer func() {
		if p := recover(); p != nil {
			result, run = nil, nil
		}
	}()
	chk := invariant.NewForPolicy(s.Scheme)
	opt, err := s.EngineOptions(chk.Check)
	if err != nil {
		return nil, nil
	}
	opt.History = metrics.NewHistory()
	r := runEngine(singleConfig{sys: s.System(), driver: s.Driver(), opt: opt}, rec, nil)
	if len(chk.Violations()) > 0 {
		return nil, nil
	}
	return r.result, &r
}
