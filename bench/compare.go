package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// results is the benchmark's results file: what -compare reads and
// what baseline/seed.json holds.
type results struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

// header records where and how the numbers were taken.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func (r *results) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeResults(path string, r *results) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one end-to-end metric of one workload. The medians
// decide, against the metric's bound — unless the run-to-run spread of
// either side is wider than the bound, in which case the row is
// unresolved, not "same", except when every run of the new side reads
// better than every run of the old.
func judge(m metricDef, old, cur summary) string {
	if !m.SpreadExempt && max(old.spread(), cur.spread()) > m.Bound {
		allBetter := cur.Max < old.Min
		if m.Better == "higher" {
			allBetter = cur.Min > old.Max
		}
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch w := m.worse(old.Median, cur.Median); {
	case w > m.Bound:
		return verdictWorse
	case w < -m.Bound:
		return verdictBetter
	}
	return verdictSame
}

// comparison is the outcome of comparing two results files.
type comparison struct {
	// regressions names every workload x metric judged worse and every
	// workload whose share of failed ops rose.
	regressions []string
	// unsettled names the rows judged better or unresolved — an A/A
	// comparison must have neither.
	unsettled []string
	// inexact names the deterministic metrics that did not repeat.
	inexact []string
}

// compareResults prints one row per workload x end-to-end metric with
// direction, bound and verdict, then the per-layer metrics side by
// side (they have no bound: they say where a difference comes from).
func compareResults(old, cur *results, out io.Writer) comparison {
	var c comparison
	for _, ow := range old.Workloads {
		nw := cur.workload(ow.Name)
		if nw == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s\n", ow.Name)
		fmt.Fprintf(out, "  %-22s %-8s %-7s %14s %14s %8s %6s  %s\n", "metric", "unit", "better", "old", "new", "change", "bound", "verdict")
		for _, m := range endToEndDefs {
			o, ok1 := ow.EndToEnd[m.Name]
			n, ok2 := nw.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			if m.SameSeed && old.Header.Seed != cur.Header.Seed {
				fmt.Fprintf(out, "  %-22s not compared: it moves with the seed (%d vs %d)\n", m.Name, old.Header.Seed, cur.Header.Seed)
				continue
			}
			v := judge(m, o, n)
			fmt.Fprintf(out, "  %-22s %-8s %-7s %14.6g %14.6g %+7.2f%% %5.3g%%  %s\n",
				m.Name, m.Unit, m.Better, o.Median, n.Median, 100*ratio(n.Median-o.Median, o.Median), 100*m.Bound, v)
			row := ow.Name + " x " + m.Name
			switch v {
			case verdictWorse:
				c.regressions = append(c.regressions, row)
			case verdictBetter, verdictUnresolved:
				c.unsettled = append(c.unsettled, row+" ("+v+")")
			}
			if isExact(m.Name) && o.Median != n.Median {
				c.inexact = append(c.inexact, row)
			}
		}
		oShare, nShare := ratio(float64(ow.OpsFailed), float64(ow.OpsAttempted)), ratio(float64(nw.OpsFailed), float64(nw.OpsAttempted))
		fmt.Fprintf(out, "  %-22s %-8s %-7s %11d/%-3d %11d/%-3d\n", "ops_failed", "count", "lower",
			ow.OpsFailed, ow.OpsAttempted, nw.OpsFailed, nw.OpsAttempted)
		if nShare > oShare {
			c.regressions = append(c.regressions, ow.Name+" x ops_failed")
		}
		if len(ow.PerLayer) == 0 || len(nw.PerLayer) == 0 {
			continue
		}
		names := make([]string, 0, len(ow.PerLayer))
		for k := range ow.PerLayer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			o, n := ow.PerLayer[k], nw.PerLayer[k]
			if o == 0 && n == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-32s %14.6g %14.6g %+7.2f%%\n", k, o, n, 100*ratio(n-o, o))
			if isExact(k) && o != n {
				c.inexact = append(c.inexact, ow.Name+" x "+k)
			}
		}
	}
	return c
}

func isExact(name string) bool { return slices.Contains(exactMetrics, name) }

// compareFiles is `bench -compare old.json new.json`: non-zero exit on
// any row judged worse or a higher share of failed ops.
func compareFiles(oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	c := compareResults(old, cur, os.Stdout)
	for _, r := range c.regressions {
		fmt.Printf("WORSE: %s\n", r)
	}
	if len(c.regressions) > 0 {
		return 1
	}
	return 0
}
