package main

import (
	"time"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/exp"
	"samrdlb/internal/machine"
	"samrdlb/internal/netsim"
	"samrdlb/internal/workload"
)

// workloadDef names one benchmark workload. Every workload is a closed
// loop with one client: the next rep starts when the previous one has
// finished. The why strings are BENCHMARK.json's; README.md carries
// the seed-commit profile shares behind them.
type workloadDef struct {
	name string
	why  string
	// single marks the workloads that are one engine run built the way
	// cmd/samrsim builds it; the other two call the sweep harnesses in
	// internal/exp, which build their engine runs themselves.
	single bool
	// data marks the runs that carry field data, whose virtual time a
	// plan-only run of the same configuration must reproduce (check d).
	data bool
}

var workloadDefs = []workloadDef{
	{"paper-fig7", "the paper's Figure 7 sweep, plan-only: control plane (regrid, clustering, plan patching), no field data", false, false},
	{"shock-data", "ShockPool3D with field data on the shared-memory path: ghost fill, prolong/restrict, regrid child init", true, true},
	{"sedov-reflux", "SedovBlast with refluxing: flux registers and the Burgers kernel, the most kernel-weighted run", true, true},
	{"shock-wire", "ShockPool3D over mpx ranks and localhost TCP: pack/send/recv/unpack ghost exchange, allocation heavy", true, true},
	{"manygrids", "AMR64 plan-only with 4096 level-0 grids on 64 processors: scale in grids x processors, not cells", true, false},
	{"campaign", "policy tournament of tiny faulted runs: setup-dominated, every balancer policy, checkpoint resume cuts", false, false},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// sizing holds every size knob of the six workloads. Two presets
// exist: full (what the benchmark measures) and smoke (the same code
// paths at toy sizes, for `go test`).
type sizing struct {
	shockN, shockSteps int // shock-data
	sedovN, sedovSteps int // sedov-reflux
	wireN, wireSteps   int // shock-wire
	// manygrids: domain, processors per group, level-0 grids per
	// processor, steps.
	manyN, manyProcs, manyGridsPerProc, manySteps int
	// paper-fig7: level-0 steps per run and the N of each N+N config.
	figSteps   int
	figConfigs []int
	// campaign: scenario envelopes per policy.
	campaignScenarios int
	// probeCalls is how often each layer probe repeats (median taken).
	probeCalls int
}

// Full sizes put one rep of every workload at roughly two seconds on
// the two-core sandbox the benchmark was sized on, so a ten-second
// measurement window holds about five reps and their median is steady
// (README.md, "Sizing").
var fullSizing = sizing{
	shockN: 48, shockSteps: 4,
	sedovN: 48, sedovSteps: 6,
	wireN: 32, wireSteps: 7,
	manyN: 64, manyProcs: 32, manyGridsPerProc: 64, manySteps: 20,
	figSteps: 3, figConfigs: exp.PaperConfigs,
	campaignScenarios: 40,
	probeCalls:        5,
}

var smokeSizing = sizing{
	shockN: 16, shockSteps: 2,
	sedovN: 16, sedovSteps: 2,
	wireN: 16, wireSteps: 2,
	manyN: 24, manyProcs: 4, manyGridsPerProc: 8, manySteps: 3,
	figSteps: 2, figConfigs: []int{1, 2},
	campaignScenarios: 5,
	probeCalls:        1,
}

func sizingFor(smoke bool) sizing {
	if smoke {
		return smokeSizing
	}
	return fullSizing
}

// Variants of a single-run workload, run once in the traced pass as
// references for the output checks.
const (
	variantSharedMP = "shm"      // shock-wire on the shared-memory path (check c)
	variantPlanOnly = "planonly" // a WithData workload without field data (check d)
)

// wanTraffic and lanTraffic are the background-traffic models of the
// paper's two systems, with the parameters internal/exp uses.
func wanTraffic(seed int64) netsim.TrafficModel {
	return &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15, Seed: seed}
}

func lanTraffic(seed int64) netsim.TrafficModel {
	return &netsim.BurstyTraffic{QuietLoad: 0.05, BusyLoad: 0.4, MeanQuiet: 20, MeanBusy: 10, Seed: seed + 1}
}

// singleConfig is everything engine.New needs for a single-run
// workload, minus the per-process attachments (pool, trace, history)
// that the child adds the way cmd/samrsim does.
type singleConfig struct {
	sys    *machine.System
	driver workload.Driver
	opt    engine.Options
}

// amr64Placement seeds AMR64's cluster placement, the same for every
// benchmark seed. The PR driver accepts a metric only if its spread
// across ten seeds stays within the metric's bound, and where the
// clusters fall moves wall time by 12 % and allocation by 12 % on
// manygrids (7 % on paper-fig7) — more than any bound worth having
// allows. So the seed perturbs what leaves the amount of work alone:
// the background-traffic models, and which scenarios the campaign
// draws (campaignOptions). README.md, "Seeds", has the measurements.
const amr64Placement = 42

// buildSingle makes the inputs of a single-run workload from the seed,
// which feeds the system's background-traffic model.
func buildSingle(name string, seed int64, sz sizing, variant string) singleConfig {
	var c singleConfig
	bal, err := dlb.NewPolicy("distributed")
	if err != nil {
		panic(err)
	}
	c.opt.Balancer = bal
	c.opt.MaxLevel = 2
	switch name {
	case "shock-data":
		c.sys = machine.WanPair(4, wanTraffic(seed))
		c.driver = workload.NewShockPool3D(sz.shockN, 2)
		c.opt.Steps = sz.shockSteps
		c.opt.WithData = true
	case "sedov-reflux":
		c.sys = machine.WanPair(4, wanTraffic(seed))
		c.driver = workload.NewSedovBlast(sz.sedovN, 2)
		c.opt.Steps = sz.sedovSteps
		c.opt.WithData = true
		c.opt.Reflux = true
	case "shock-wire":
		c.sys = machine.WanPair(4, wanTraffic(seed))
		c.driver = workload.NewShockPool3D(sz.wireN, 2)
		c.opt.Steps = sz.wireSteps
		c.opt.WithData = true
		if variant != variantSharedMP {
			c.opt.UseMPX = true
			c.opt.Transport = engine.TransportTCP
			c.opt.WireTimeout = 5 * time.Second
		}
	case "manygrids":
		c.sys = machine.LanPair(sz.manyProcs, lanTraffic(seed))
		c.driver = workload.NewAMR64(sz.manyN, 2, amr64Placement)
		c.opt.Steps = sz.manySteps
		c.opt.GridsPerProc = sz.manyGridsPerProc
		c.opt.RegridInterval = 4
	default:
		panic("bench: not a single-run workload: " + name)
	}
	if variant == variantPlanOnly {
		c.opt.WithData = false
		c.opt.Reflux = false
		c.opt.UseMPX = false
		c.opt.Transport = ""
	}
	return c
}

// fig7Options are the sweep options of the paper-fig7 workload for one
// dataset. exp.Options has one seed for cluster placement and traffic
// alike, so the AMR64 sweep runs at the fixed placement seed and the
// benchmark seed feeds the ShockPool3D sweep's WAN traffic.
func fig7Options(dataset string, seed int64, sz sizing) exp.Options {
	if dataset == "AMR64" {
		seed = amr64Placement
	}
	return exp.Options{Steps: sz.figSteps, Configs: sz.figConfigs, Seed: seed}
}

// fig7LargestConfig rebuilds the sweep's largest run — ShockPool3D on
// the biggest N+N WAN pair under the parallel scheme — the way
// exp.Run does, so the traced pass can decorate it. The child checks
// its Result against the sweep's own row, which catches this copy
// drifting from internal/exp.
func fig7LargestConfig(seed int64, sz sizing) singleConfig {
	o := fig7Options("ShockPool3D", seed, sz)
	bal, err := dlb.NewPolicy("parallel")
	if err != nil {
		panic(err)
	}
	n := o.Configs[len(o.Configs)-1]
	return singleConfig{
		sys:    machine.WanPair(n, wanTraffic(seed)),
		driver: workload.NewShockPool3D(32, 2),
		opt:    engine.Options{Steps: o.Steps, Balancer: bal, MaxLevel: 2},
	}
}

// campaignOptions are the tournament options of the campaign workload.
// The seed slides the window of scenario seeds by at most one, so any
// two benchmark seeds share 39 of their 40 envelopes: a fresh set per
// seed moves allocation by 9 %, a window sliding by up to three still
// by 4.6 %.
func campaignOptions(seed int64, sz sizing) exp.TournamentOptions {
	return exp.TournamentOptions{Scenarios: sz.campaignScenarios, Seed0: 50000 + (seed & 1)}
}
