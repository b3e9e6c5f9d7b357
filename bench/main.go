// Command bench is the repository's end-to-end benchmark: six named
// workloads, each rep in a fresh child process, wall-clock end-to-end
// metrics from untraced reps and per-layer metrics from one extra
// traced rep whose spans are recorded from this directory only. See
// README.md for the workloads, the metrics and how they interact.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                       # all six workloads, 5 reps + traced pass each
//	bash bench/run.sh -workload shock-data  # one workload
//	bash bench/run.sh -seed 43 -reps 3
//	bash bench/run.sh -selfcheck            # A/A: the whole benchmark twice, compared with its own bounds
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -smoke                # toy sizes, seconds
//
// The PR driver's form measures one workload for a fixed time and
// prints one JSON result line last:
//
//	bash bench/run.sh --workload shock-data --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadFl = flag.String("workload", "", "run only this workload (default: all six)")
		seed       = flag.Int64("seed", 42, "feeds AMR64 cluster placement, the traffic models and the campaign's first scenario seed")
		reps       = flag.Int("reps", 5, "untraced reps per workload")
		seconds    = flag.Float64("seconds", 0, "measure untraced reps for this many seconds instead of -reps")
		traceFl    = flag.String("trace", "", "0: untraced reps only, 1: traced pass only; either prints the PR driver's JSON result line last (default: both passes)")
		smoke      = flag.Bool("smoke", false, "toy sizes: the same six workloads and code paths in seconds")
		outDir     = flag.String("out", "bench/out", "directory for results.json and <workload>.spans.jsonl")
		selfcheck  = flag.Bool("selfcheck", false, "run the benchmark twice on this binary and compare the two with the benchmark's own bounds")
		compare    = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		child      = flag.String("child", "", "internal: run one rep (JSON spec) and print its report")
	)
	flag.Parse()

	if *child != "" {
		var spec repSpec
		if err := json.Unmarshal([]byte(*child), &spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench -child:", err)
			os.Exit(2)
		}
		os.Exit(childMain(spec))
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	defs := workloadDefs
	if *workloadFl != "" {
		def := findWorkload(*workloadFl)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFl)
			os.Exit(2)
		}
		defs = []workloadDef{*def}
	}
	p := passes{untraced: true, traced: true, seconds: *seconds, reps: *reps}
	switch *traceFl {
	case "":
	case "0":
		p.traced = false
	case "1":
		p.untraced = false
	default:
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	h, err := newHarness(*seed, *smoke, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	if *selfcheck {
		os.Exit(runSelfcheck(h, defs, p))
	}
	res := h.run(defs, p)
	res.print()
	if err := writeResults(filepath.Join(*outDir, "results.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	failed := 0
	for _, w := range res.Workloads {
		failed += w.OpsFailed
	}
	if *traceFl != "" && len(defs) == 1 {
		if !printDriverLine(&res.Workloads[0], p) {
			os.Exit(1)
		}
		return // the driver reads failures from the line, not the exit code
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// run measures the given workloads one after another.
func (h *harness) run(defs []workloadDef, p passes) *results {
	res := &results{Header: h.header(p)}
	for _, def := range defs {
		res.Workloads = append(res.Workloads, h.runWorkload(def, p))
	}
	return res
}

func (h *harness) header(p passes) header {
	hd := header{
		GoVersion: runtime.Version(), GOMAXPROCS: h.procs, NProc: runtime.NumCPU(),
		CPU: cpuModel(), Commit: gitCommit(), Seed: h.seed, Smoke: h.smoke,
	}
	if p.untraced {
		hd.Reps, hd.Seconds = p.reps, p.seconds
		if p.seconds > 0 {
			hd.Reps = 0
		}
	}
	return hd
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// checkout (the PR driver's copy is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes every metric by name with its unit.
func (r *results) print() {
	hd := r.Header
	fmt.Printf("bench: %s, GOMAXPROCS %d of %d cpus (%s), commit %s, seed %d\n",
		hd.GoVersion, hd.GOMAXPROCS, hd.NProc, hd.CPU, hd.Commit, hd.Seed)
	for _, w := range r.Workloads {
		fmt.Printf("\n== %s: %d ops attempted, %d failed\n", w.Name, w.OpsAttempted, w.OpsFailed)
		for _, f := range w.Failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		for _, m := range endToEndDefs {
			s, ok := w.EndToEnd[m.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-22s %14.6g %-8s q1 %-12.6g q3 %-12.6g n %-3d %s is better, bound %.3g%%\n",
				m.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N, m.Better, 100*m.Bound)
		}
		for _, m := range perLayerDefs {
			if v, ok := w.PerLayer[m.Name]; ok {
				fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
}

// printDriverLine prints the PR driver's result: one JSON object, last
// on stdout, with every end-to-end metric (untraced pass) or every
// per-layer metric (traced pass). It reports false when a metric is
// missing because no rep ran to a report.
func printDriverLine(w *workloadReport, p passes) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if p.untraced {
		for _, m := range endToEndDefs {
			if !m.inDriverList() {
				continue
			}
			s, ok := w.EndToEnd[m.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: no value for %s: no rep of %s completed\n", m.Name, w.Name)
				return false
			}
			metrics[m.Name] = value{s.Median, m.Unit}
		}
	} else {
		for _, m := range perLayerDefs {
			metrics[m.Name] = value{w.PerLayer[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.OpsFailed == 0, w.OpsAttempted, w.OpsFailed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(line))
	return true
}

// runSelfcheck is the A/A test: the same binary measured twice must
// agree with itself within the benchmark's own bounds on every
// end-to-end metric x workload, and the deterministic metrics must
// repeat exactly.
func runSelfcheck(h *harness, defs []workloadDef, p passes) int {
	a := h.run(defs, p)
	b := h.run(defs, p)
	for name, r := range map[string]*results{"selfcheck.A.json": a, "selfcheck.B.json": b} {
		if err := writeResults(filepath.Join(h.outDir, name), r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	c := compareResults(a, b, os.Stdout)
	bad := 0
	for _, r := range c.regressions {
		fmt.Printf("DISAGREE (worse): %s\n", r)
		bad++
	}
	for _, r := range c.unsettled {
		fmt.Printf("DISAGREE: %s\n", r)
		bad++
	}
	for _, r := range c.inexact {
		fmt.Printf("NOT EXACT: %s\n", r)
		bad++
	}
	for _, res := range []*results{a, b} {
		for _, w := range res.Workloads {
			if w.OpsFailed > 0 {
				fmt.Printf("FAILED OPS: %s %d of %d\n", w.Name, w.OpsFailed, w.OpsAttempted)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("selfcheck: both runs agree within the benchmark's bounds")
	return 0
}
