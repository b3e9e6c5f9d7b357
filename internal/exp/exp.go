// Package exp is the experiment harness: it reassembles the paper's
// evaluation — Figure 3 (parallel vs distributed execution under the
// parallel DLB), Figure 7 (parallel DLB vs distributed DLB execution
// times), Figure 8 (efficiency) — plus the γ-sensitivity ablation the
// paper defers to future work, on the modelled ANL/NCSA systems.
//
// Reproduction posture: the substrate is a simulator, so absolute
// times are not comparable to the paper's Origin2000 numbers; the
// shape is. Each figure's harness reports the same rows/series the
// paper plots, and the Bands tables record the paper's reported
// ranges so tests and EXPERIMENTS.md can compare.
package exp

import (
	"fmt"
	"sort"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/scenario"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// PaperConfigs are the tested configurations: N+N processors.
var PaperConfigs = []int{1, 2, 4, 6, 8}

// Options configures a sweep.
type Options struct {
	// Steps is the number of level-0 steps per run (default 10).
	Steps int
	// Configs are the N of each N+N configuration (default
	// PaperConfigs).
	Configs []int
	// Seed drives the traffic models and AMR64's cluster placement.
	Seed int64
	// MaxLevel is the refinement depth (default 2).
	MaxLevel int
	// WithData carries real field data (slower; default off for
	// sweeps — virtual timing is identical either way, which
	// TestWithDataMatchesPlanOnlyTiming in the engine package checks).
	WithData bool
	// ShockN and AMRN are the level-0 domain sizes (defaults 32).
	ShockN, AMRN int
}

func (o *Options) setDefaults() {
	if o.Steps <= 0 {
		o.Steps = 10
	}
	if len(o.Configs) == 0 {
		o.Configs = PaperConfigs
	}
	if o.MaxLevel <= 0 {
		o.MaxLevel = 2
	}
	if o.ShockN <= 0 {
		o.ShockN = 32
	}
	if o.AMRN <= 0 {
		o.AMRN = 32
	}
}

// testbed is the machine Section 5 runs a dataset on, n processors per
// group, built as samrsim -system builds it: AMR64 on the LAN-connected
// ANL pair, every other dataset on the ANL–NCSA WAN pair.
func testbed(dataset string, n int, seed int64) *machine.System {
	s := scenario.Scenario{Testbed: "wan", TestbedN: n, Seed: seed}
	if dataset == "AMR64" {
		s.Testbed = "lan"
	}
	return s.System()
}

// Run executes one (dataset, scheme, system) combination and returns
// its result; an unknown dataset or scheme name is an error. AMR64 runs
// on its own domain size (Options.AMRN), every other dataset on ShockN.
func Run(dataset, scheme string, sys *machine.System, o Options) (*metrics.Result, error) {
	return run(dataset, scheme, sys, o, nil)
}

// run is Run with a hook: vary, when non-nil, adjusts the engine
// options before the run is built — how a sweep turns its one knob.
func run(dataset, scheme string, sys *machine.System, o Options, vary func(*engine.Options)) (*metrics.Result, error) {
	o.setDefaults()
	n := o.ShockN
	if dataset == "AMR64" {
		n = o.AMRN
	}
	driver, err := workload.ByName(dataset, n, o.Seed)
	if err != nil {
		return nil, err
	}
	bal, err := dlb.NewPolicy(scheme)
	if err != nil {
		return nil, err
	}
	eo := engine.Options{
		Steps:    o.Steps,
		Balancer: bal,
		MaxLevel: o.MaxLevel,
		WithData: o.WithData,
	}
	if vary != nil {
		vary(&eo)
	}
	return engine.New(sys, driver, eo).Run(), nil
}

// mustRun is run for the figure and ablation drivers, whose dataset and
// scheme names are fixed in the source: a wrong one is a bug.
func mustRun(dataset, scheme string, sys *machine.System, o Options, vary func(*engine.Options)) *metrics.Result {
	res, err := run(dataset, scheme, sys, o, vary)
	if err != nil {
		panic(err)
	}
	return res
}

// job is one independent engine run of a sweep. Each builds its own
// system (and run builds its own workload and balancer), so jobs share
// nothing and may run in any order.
type job struct {
	dataset, scheme string
	system          func() *machine.System
	vary            func(*engine.Options)
	// size orders the claims: larger jobs start first (the LPT rule),
	// so the longest run does not start last and leave a core idle.
	size int
}

// runJobs runs a sweep's jobs on the solver pool and returns their
// results indexed like jobs. Which job runs where and when is up to
// the pool; the caller folds the slice in its own order, so every row
// and sum it builds is the serial one at any GOMAXPROCS.
func runJobs(jobs []job, o Options) []*metrics.Result {
	claim := make([]int, len(jobs))
	for i := range claim {
		claim[i] = i
	}
	sort.SliceStable(claim, func(a, b int) bool { return jobs[claim[a]].size > jobs[claim[b]].size })
	res := make([]*metrics.Result, len(jobs))
	solver.NewPool(0).ForEach(len(claim), func(k int) {
		j := jobs[claim[k]]
		res[claim[k]] = mustRun(j.dataset, j.scheme, j.system(), o, j.vary)
	})
	return res
}

// sweep runs a parameter sweep: per value, the paper's scheme on
// ShockPool3D and the 4+4 WAN system with set applying the value to
// the engine options. Results are indexed like vals.
func sweep[T any](vals []T, o Options, set func(*engine.Options, T)) []*metrics.Result {
	jobs := make([]job, len(vals))
	for i, v := range vals {
		jobs[i] = job{"ShockPool3D", "distributed", func() *machine.System { return testbed("ShockPool3D", 4, o.Seed) },
			func(eo *engine.Options) { set(eo, v) }, 4}
	}
	return runJobs(jobs, o)
}

// sequentialJob runs the dataset on a single dedicated processor — the
// E(1) of the paper's efficiency definition.
func sequentialJob(dataset string) job {
	return job{dataset, "distributed", func() *machine.System { return machine.Origin2000("seq", 1) }, nil, 1}
}

// ConfigName renders a configuration the way the paper does.
func ConfigName(n int) string { return fmt.Sprintf("%d+%d", n, n) }
