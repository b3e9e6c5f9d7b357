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

	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/scenario"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
)

// PaperConfigs are the tested configurations: N+N processors.
var PaperConfigs = []int{1, 2, 4, 6, 8}

// Every dataset runs on a 32³ level-0 domain refined twice, plan-only:
// virtual timing is identical with field data (the engine package's
// TestWithDataMatchesPlanOnlyTiming checks), and the sweeps run faster
// without it.
const (
	domainN  = 32
	maxLevel = 2
)

// Options configures a sweep.
type Options struct {
	// Steps is the number of level-0 steps per run (default 10).
	Steps int
	// Configs are the N of each N+N configuration (default
	// PaperConfigs).
	Configs []int
	// Seed drives the traffic models and AMR64's cluster placement.
	Seed int64
}

func (o *Options) setDefaults() {
	if o.Steps <= 0 {
		o.Steps = 10
	}
	if len(o.Configs) == 0 {
		o.Configs = PaperConfigs
	}
}

// spec describes one sweep run: dataset under scheme on the testbed
// Section 5 runs it on, n processors per group, as samrsim -system
// builds it — AMR64 on the LAN-connected ANL pair, every other dataset
// on the ANL–NCSA WAN pair. A sweep sets the field it varies on the
// result.
func (o Options) spec(dataset, scheme string, n int) scenario.Scenario {
	s := scenario.Scenario{
		Seed: o.Seed, Dataset: dataset, DomainN: domainN, MaxLevel: maxLevel, Scheme: scheme,
		Testbed: "wan", TestbedN: n, Steps: o.Steps, ResumeCut: -1,
	}
	if dataset == "AMR64" {
		s.Testbed = "lan"
	}
	return s
}

// job is one independent engine run of a sweep. Each builds its own
// system, driver and balancer, so jobs share nothing and may run in
// any order.
type job struct {
	s scenario.Scenario
	// system, when non-nil, builds the machine in place of s.System():
	// the ablations whose traffic models or site counts no spec
	// describes.
	system func() *machine.System
	// size orders the claims: larger jobs start first (the LPT rule),
	// so the longest run does not start last and leave a core idle.
	size int
}

// runner builds the job's run with tr attached (nil for none). The
// names in an exp spec are fixed in the source, so a wrong one is a
// bug and panics.
func (j job) runner(tr *trace.Recorder) *engine.Runner {
	opt, err := j.s.EngineOptions(nil)
	if err != nil {
		panic(err)
	}
	opt.Trace = tr
	sys := j.system
	if sys == nil {
		sys = j.s.System
	}
	r, err := engine.Build(sys(), j.s.Driver(), opt)
	if err != nil {
		panic(err)
	}
	return r
}

// runJobs runs a sweep's jobs on the solver pool and returns their
// results indexed like jobs. Which job runs where and when is up to
// the pool; the caller folds the slice in its own order, so every row
// and sum it builds is the serial one at any GOMAXPROCS.
func runJobs(jobs []job) []*metrics.Result {
	claim := make([]int, len(jobs))
	for i := range claim {
		claim[i] = i
	}
	sort.SliceStable(claim, func(a, b int) bool { return jobs[claim[a]].size > jobs[claim[b]].size })
	res := make([]*metrics.Result, len(jobs))
	solver.NewPool(0).ForEach(len(claim), func(k int) {
		res[claim[k]] = jobs[claim[k]].runner(nil).Run()
	})
	return res
}

// sweep runs a parameter sweep: per value, the paper's scheme on
// ShockPool3D and the 4+4 WAN system with set applying the value to
// the spec (setScheme replaces the scheme). Results are indexed like
// vals.
func sweep[T any](vals []T, o Options, set func(*scenario.Scenario, T)) []*metrics.Result {
	jobs := make([]job, len(vals))
	for i, v := range vals {
		jobs[i] = job{s: o.spec("ShockPool3D", "distributed", 4), size: 4}
		set(&jobs[i].s, v)
	}
	return runJobs(jobs)
}

// The setters of the sweeps: each applies one value to a sweep's spec.
func setGamma(s *scenario.Scenario, g float64)      { s.Gamma = g }
func setEps(s *scenario.Scenario, e float64)        { s.Eps = e }
func setGridsPerProc(s *scenario.Scenario, g int)   { s.GridsPerProc = g }
func setRegridInterval(s *scenario.Scenario, i int) { s.RegridInterval = i }
func setScheme(s *scenario.Scenario, v string)      { s.Scheme = v }

// sequentialJob runs the dataset on a single dedicated processor — the
// E(1) of the paper's efficiency definition.
func sequentialJob(dataset string, o Options) job {
	s := o.spec(dataset, "distributed", 1)
	s.Testbed = "origin"
	return job{s: s, size: 1}
}

// ConfigName renders a configuration the way the paper does.
func ConfigName(n int) string { return fmt.Sprintf("%d+%d", n, n) }
