package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// harness runs reps of the workloads, each in a fresh child process
// (this binary re-executed with -child): a clean heap and a clean
// rusage per rep, so cpu_s and peak_rss_mb belong to that rep alone.
type harness struct {
	exe    string
	seed   int64
	smoke  bool
	outDir string
	// procs is the children's GOMAXPROCS: min(4, nproc).
	procs int
	// repTimeout kills a child that hangs; its op counts as failed.
	repTimeout time.Duration
}

func newHarness(seed int64, smoke bool, outDir string) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &harness{
		exe: exe, seed: seed, smoke: smoke, outDir: outDir,
		procs:      min(4, runtime.NumCPU()),
		repTimeout: 150 * time.Second,
	}, nil
}

// rep is one child's report plus what only the parent can measure.
type rep struct {
	repResult
	SetupS    float64
	CPUS      float64
	PeakRSSMB float64
	// Err is set when the child could not be run to a report at all
	// (spawn failure, crash, timeout, unparsable output).
	Err string
}

// spawn runs one rep in a child process. gomaxprocs 0 means the
// harness default.
func (h *harness) spawn(spec repSpec, gomaxprocs int) rep {
	spec.Seed, spec.Smoke = h.seed, h.smoke
	arg, err := json.Marshal(spec)
	if err != nil {
		return rep{Err: err.Error()}
	}
	if gomaxprocs == 0 {
		gomaxprocs = h.procs
	}
	ctx, cancel := context.WithTimeout(context.Background(), h.repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	spawned := time.Now()
	err = cmd.Run()
	var out rep
	if err != nil {
		out.Err = fmt.Sprintf("child: %v", err)
		if ctx.Err() != nil {
			out.Err = fmt.Sprintf("child timed out after %v", h.repTimeout)
		}
		return out
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.repResult); err != nil {
		out.Err = fmt.Sprintf("child report: %v", err)
		return out
	}
	out.SetupS = float64(out.OpStartUnixNano-spawned.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		out.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// measure runs untraced reps of a workload one after another (closed
// loop, one client): for `seconds` of wall time when seconds > 0 —
// no rep starts after the window closes — else exactly n reps.
func (h *harness) measure(def workloadDef, seconds float64, n int) []rep {
	var reps []rep
	start := time.Now()
	for i := 0; ; i++ {
		if seconds > 0 {
			if i > 0 && time.Since(start).Seconds() >= seconds {
				break
			}
		} else if i >= n {
			break
		}
		reps = append(reps, h.spawn(repSpec{Workload: def.name}, 0))
	}
	return reps
}

// workloadReport is one workload's part of the results file.
type workloadReport struct {
	Name string `json:"name"`
	// OpsAttempted counts engine runs (1 per rep for single-run
	// workloads, 20 per paper-fig7 rep, 7 x envelopes per campaign
	// rep); OpsFailed those that panicked, errored, timed out or sat in
	// a rep that failed an output check.
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Failures     []string           `json:"failures,omitempty"`
	EndToEnd     map[string]summary `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

// nominalRuns is the engine runs one rep of a workload makes, used
// when a child died before it could say.
func nominalRuns(def workloadDef, sz sizing) int {
	switch def.name {
	case "paper-fig7":
		return 4 * len(sz.figConfigs)
	case "campaign":
		return 7 * sz.campaignScenarios
	}
	return 1
}

// count adds a rep's engine runs to the report's op counts.
func (w *workloadReport) count(def workloadDef, sz sizing, label string, r *rep) {
	runs := r.Runs
	if runs == 0 {
		runs = nominalRuns(def, sz)
	}
	w.OpsAttempted += runs
	switch {
	case r.Err != "":
		w.OpsFailed += runs
		w.Failures = append(w.Failures, label+": "+r.Err)
	case len(r.Failures) > 0:
		w.OpsFailed += runs
		for _, f := range r.Failures {
			w.Failures = append(w.Failures, label+": check "+f)
		}
	default:
		w.OpsFailed += r.FailedRuns
	}
}

// checkRepsAgree is output check (a): every rep of a workload must
// produce the same Results and the same final-state checksum as the
// first. It marks the reps that differ as failed.
func checkRepsAgree(reps []rep) {
	var first *rep
	for i := range reps {
		r := &reps[i]
		if r.Err != "" {
			continue
		}
		if first == nil {
			first = r
			continue
		}
		if r.Fingerprint != first.Fingerprint {
			r.fail("a", "Result differs from the first rep's:\n  first: %s\n  this:  %s", first.Fingerprint, r.Fingerprint)
		}
		if r.Checksum != first.Checksum {
			r.fail("a", "end-state checksum %s differs from the first rep's %s", r.Checksum, first.Checksum)
		}
	}
}

// endToEnd summarises the end-to-end metrics over the reps that ran.
func endToEnd(def workloadDef, reps []rep) map[string]summary {
	vals := map[string][]float64{}
	for _, r := range reps {
		if r.Err != "" {
			continue
		}
		vals["setup_s"] = append(vals["setup_s"], r.SetupS)
		vals["run_wall_s"] = append(vals["run_wall_s"], r.RunWallS)
		vals["cpu_s"] = append(vals["cpu_s"], r.CPUS)
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], r.PeakRSSMB)
		vals["alloc_mb"] = append(vals["alloc_mb"], r.AllocMB)
		vals["mallocs_k"] = append(vals["mallocs_k"], r.MallocsK)
		vals["virtual_total_s"] = append(vals["virtual_total_s"], r.VirtualTotalS)
		vals["cell_updates_per_s"] = append(vals["cell_updates_per_s"], ratio(float64(r.CellUpdates), r.RunWallS))
		vals["runs_per_s"] = append(vals["runs_per_s"], ratio(float64(r.Runs), r.RunWallS))
		vals["dlb_improvement_pct"] = append(vals["dlb_improvement_pct"], r.DLBImprovementPct)
	}
	out := map[string]summary{}
	for _, m := range endToEndDefs {
		if m.appliesTo(def.name) && len(vals[m.Name]) > 0 {
			out[m.Name] = summarize(vals[m.Name], m.Unit)
		}
	}
	return out
}

// passes selects what runWorkload does.
type passes struct {
	untraced bool
	seconds  float64 // untraced window; 0 = use reps
	reps     int
	traced   bool
}

// runWorkload measures one workload: the untraced reps that give the
// end-to-end metrics, then the traced pass that gives the per-layer
// ones. A traced pass on its own first runs one untraced rep as the
// reference the traced rep must match.
func (h *harness) runWorkload(def workloadDef, p passes) workloadReport {
	sz := sizingFor(h.smoke)
	w := workloadReport{Name: def.name}
	var reps []rep
	switch {
	case p.untraced:
		reps = h.measure(def, p.seconds, p.reps)
	case p.traced:
		reps = h.measure(def, 0, 1)
	}
	checkRepsAgree(reps)
	for i := range reps {
		w.count(def, sz, fmt.Sprintf("rep %d", i+1), &reps[i])
	}
	if p.untraced {
		w.EndToEnd = endToEnd(def, reps)
	}
	if p.traced {
		h.tracedPass(def, sz, reps, &w)
	}
	return w
}

// tracedPass runs the one traced rep and the reference variants the
// output checks need, and fills in the per-layer metrics.
func (h *harness) tracedPass(def workloadDef, sz sizing, untraced []rep, w *workloadReport) {
	var ref *rep
	var walls []float64
	for i := range untraced {
		if untraced[i].Err == "" {
			if ref == nil {
				ref = &untraced[i]
			}
			walls = append(walls, untraced[i].RunWallS)
		}
	}
	baseWall := median(walls)

	spans := filepath.Join(h.outDir, def.name+".spans.jsonl")
	traced := h.spawn(repSpec{Workload: def.name, Traced: true, SpansPath: spans}, 0)
	if traced.Err == "" && ref != nil {
		checkTracedMatches(&traced, ref)
	}
	w.count(def, sz, "traced rep", &traced)
	variant := func(v string, check func(variant, traced *rep)) {
		r := h.spawn(repSpec{Workload: def.name, Variant: v}, 0)
		check(&r, &traced)
		w.count(def, sz, "variant "+v, &r)
	}
	if traced.Err == "" {
		if def.name == "shock-wire" {
			variant(variantSharedMP, checkSharedMemoryMatches)
		}
		if def.data {
			variant(variantPlanOnly, checkPlanOnlyMatches)
		}
	}

	layers := map[string]float64{}
	for _, m := range perLayerDefs {
		layers[m.Name] = 0
	}
	for k, v := range traced.Layers {
		layers[k] = v
	}
	if ref != nil {
		layers["exp.runs_per_s"] = ratio(float64(ref.Runs), baseWall)
		layers["vclock.total_s"] = ref.VirtualTotalS
	}
	if def.single && traced.Err == "" && baseWall > 0 {
		layers["bench.trace_overhead_pct"] = 100 * (traced.RunWallS/baseWall - 1)
	}
	if def.name == "shock-data" && baseWall > 0 {
		// The plain single-threaded baseline of the same problem.
		one := h.spawn(repSpec{Workload: def.name}, 1)
		if ref != nil && one.Err == "" && one.Fingerprint != ref.Fingerprint {
			one.fail("a", "Result at GOMAXPROCS=1 differs from the default's")
		}
		w.count(def, sz, "GOMAXPROCS=1 rep", &one)
		if one.Err == "" {
			layers["engine.parallel_speedup"] = one.RunWallS / baseWall
		}
	}
	w.PerLayer = layers
}

// checkTracedMatches is output check (g): decorators must not perturb
// the run.
func checkTracedMatches(traced, ref *rep) {
	if traced.Fingerprint != ref.Fingerprint {
		traced.fail("g", "traced Result differs from the untraced one:\n  untraced: %s\n  traced:   %s", ref.Fingerprint, traced.Fingerprint)
	}
	if traced.Checksum != ref.Checksum {
		traced.fail("g", "traced end-state checksum %s differs from the untraced %s", traced.Checksum, ref.Checksum)
	}
}

// checkSharedMemoryMatches is the second half of output check (c): the
// wire run's Result (transport counters aside) and field checksum
// must equal the same configuration's on the shared-memory path.
func checkSharedMemoryMatches(shm, wire *rep) {
	if shm.Err != "" {
		return
	}
	if shm.Fingerprint != wire.Fingerprint {
		shm.fail("c", "shared-memory Result differs from the wire run's:\n  wire: %s\n  shm:  %s", wire.Fingerprint, shm.Fingerprint)
	}
	if shm.Checksum != wire.Checksum {
		shm.fail("c", "shared-memory field checksum %s differs from the wire run's %s", shm.Checksum, wire.Checksum)
	}
}

// checkPlanOnlyMatches is the second half of output check (d): a
// plan-only run of the same configuration must take exactly the same
// virtual time (the repository's TestWithDataMatchesPlanOnlyTiming
// promise).
func checkPlanOnlyMatches(planOnly, withData *rep) {
	if planOnly.Err == "" && planOnly.VirtualTotalS != withData.VirtualTotalS {
		planOnly.fail("d", "plan-only virtual total %v differs from the data run's %v", planOnly.VirtualTotalS, withData.VirtualTotalS)
	}
}
