package main

import (
	"slices"

	"samrdlb/internal/dlb"
)

// metricDef names one metric with its unit and direction. Bound is
// the share of the baseline's median by which an end-to-end metric
// may worsen before -compare, -selfcheck and the PR driver call it a
// regression (README.md records the A/A evidence behind each).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	// Only lists the workloads an end-to-end metric applies to; nil
	// means all six.
	Only []string
	// SameSeed marks an end-to-end metric that is a pure function of
	// the inputs: it repeats exactly at one seed and moves with the
	// seed, so it can be bounded only between runs at the same seed.
	SameSeed bool
	// SpreadExempt has -compare judge the metric on medians alone.
	// setup_s is three milliseconds of process start on two workloads,
	// whose quartiles say nothing; the PR driver exempts its spread too.
	SpreadExempt bool
}

// inDriverList reports whether an end-to-end metric is listed in
// BENCHMARK.json's end_to_end. The PR driver wants every listed metric
// from every workload and bounds its spread across seeds, so the list
// holds the metrics that apply everywhere and measure the machine, not
// the inputs; the others appear in BENCHMARK.json as per-layer twins
// (engine.cell_updates_per_s, exp.runs_per_s, exp.dlb_improvement_pct,
// vclock.total_s) and keep their bounds in -compare and -selfcheck.
func (m metricDef) inDriverList() bool { return m.Only == nil && !m.SameSeed }

func (m metricDef) appliesTo(workload string) bool {
	return m.Only == nil || slices.Contains(m.Only, workload)
}

// worse reports by what share of base the value cur is worse (negative
// when it is better).
func (m metricDef) worse(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

var (
	singleRun = []string{"shock-data", "sedov-reflux", "shock-wire", "manygrids"}
	multiRun  = []string{"paper-fig7", "campaign"}
)

// endToEndDefs are what a user of the simulator sees: how long a run
// takes, what it costs in CPU and memory, and the paper's own metric,
// virtual execution time. The eleventh metric of the issue's table,
// ops_failed, is the ops_failed/ops_attempted pair of every report.
// Each bound is at least three times the widest spread seen for the
// metric on any workload (README.md, "Bounds").
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SpreadExempt: true},
	{Name: "run_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "mallocs_k", Unit: "1e3", Better: "lower", Bound: 0.05},
	{Name: "cell_updates_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25, Only: singleRun},
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Only: multiRun},
	{Name: "virtual_total_s", Unit: "s", Better: "lower", Bound: 0.001, SameSeed: true},
	{Name: "dlb_improvement_pct", Unit: "%", Better: "higher", Bound: 0.001, Only: []string{"paper-fig7"}, SameSeed: true},
}

// exactMetrics must repeat bit for bit between two runs of the same
// binary at the same seed; -selfcheck fails otherwise.
var exactMetrics = []string{"virtual_total_s", "dlb_improvement_pct", "engine.level_steps", "solver.cells_updated"}

// perLayerDefs lists every per-layer metric; the prefix is the
// internal/ package it measures. A traced pass reports each one on
// every workload, 0 where the workload does not exercise the layer.
var perLayerDefs = func() []metricDef {
	lower := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	higher := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "higher"})
		}
		return out
	}
	var d []metricDef
	add := func(m []metricDef) { d = append(d, m...) }
	add(lower("s", "engine.regrid_span_s", "engine.advance_span_s", "engine.exchange_self_s", "engine.tail_self_s"))
	add(lower("count", "engine.level_steps"))
	add(higher("x", "engine.parallel_speedup"))
	add(higher("cells/s", "engine.cell_updates_per_s"))
	add(lower("s", "amr.regrid_self_s", "amr.fill_sweep_s", "amr.restrict_sweep_s", "amr.plan_build_s",
		"amr.plan_patch_s", "amr.regridall_s", "amr.reflux_register_s", "amr.save_s", "amr.load_s"))
	add(lower("B", "amr.fill_bytes", "amr.save_bytes"))
	add(lower("count", "amr.plan_msgs", "amr.regridall_allocs"))
	add(lower("s", "cluster.cluster_s"))
	add(lower("count", "cluster.boxes"))
	add(higher("ratio", "cluster.efficiency"))
	add(lower("s", "solver.step_busy_s", "solver.step_cover_s", "solver.particle_count_s"))
	add(lower("count", "solver.step_calls"))
	add(lower("cells", "solver.cells_updated"))
	add(lower("ns", "solver.ns_per_cell", "solver.advection_ns_per_cell", "solver.burgers_ns_per_cell", "solver.gauss_seidel_ns_per_cell"))
	add(lower("s", "workload.flag_s", "workload.init_s"))
	add(lower("count", "workload.flag_calls"))
	add(lower("s", "dlb.place_s", "dlb.local_s", "dlb.global_s", "dlb.local_balanced_s"))
	add(lower("count", "dlb.place_calls", "dlb.local_calls", "dlb.local_migrations", "dlb.global_evals",
		"dlb.global_redists", "dlb.local_balanced_allocs"))
	add(higher("ratio", "dlb.local_hit_ratio", "dlb.global_hit_ratio"))
	add(lower("s", "load.ledger_event_s", "load.ledger_rebuild_s"))
	add(lower("count", "load.ledger_events"))
	add(lower("count", "mpx.frames", "mpx.timeouts", "mpx.fallbacks", "mpx.allocs_per_frame"))
	add(lower("B", "mpx.wire_bytes"))
	add(lower("us", "mpx.tcp_frame_us"))
	add(higher("MB/s", "mpx.tcp_mb_per_s"))
	add(lower("s", "ckpt.write_s", "ckpt.restore_s"))
	add(higher("ratio", "vclock.compute_share"))
	add(lower("ratio", "vclock.comm_share", "vclock.overhead_share"))
	add(lower("s", "vclock.total_s"))
	add(lower("ms", "scenario.exec_p50_ms", "scenario.exec_tail_ms"))
	add(higher("%", "scenario.exec_tail_pct"))
	add(higher("count", "scenario.exec_n"))
	for _, p := range dlb.PolicyNames() {
		add(lower("s", "exp.policy_wall_s."+p))
	}
	add(lower("s", "exp.fig7_amr64_s", "exp.fig7_shock_s"))
	add(higher("1/s", "exp.runs_per_s"))
	add(higher("%", "exp.dlb_improvement_pct"))
	add(lower("%", "bench.trace_overhead_pct"))
	add(lower("count", "bench.spans"))
	add(higher("ratio", "bench.span_coverage"))
	return d
}()
