package exp

import (
	"fmt"
	"strings"

	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/scenario"
)

// Ablations beyond the paper's figures: the sensitivity studies its
// Section 6 lists as future work (γ is in figures.go; here the
// imbalance trigger, decomposition granularity, regrid interval, the
// NWS forecasting integration, and the multi-site extension).

// EpsRow is one point of the imbalance-trigger sweep.
type EpsRow struct {
	Eps           float64
	Total         float64
	GlobalEvals   int
	GlobalRedists int
}

// EpsSweep varies the "imbalance exists?" threshold on the 4+4 WAN
// system.
func EpsSweep(epss []float64, o Options) []EpsRow {
	o.setDefaults()
	var rows []EpsRow
	for i, r := range sweep(epss, o, func(s *scenario.Scenario, e float64) { s.Eps = e }) {
		rows = append(rows, EpsRow{Eps: epss[i], Total: r.Total, GlobalEvals: r.GlobalEvals, GlobalRedists: r.GlobalRedists})
	}
	return rows
}

// GranularityRow is one point of the decomposition-granularity sweep.
type GranularityRow struct {
	GridsPerProc int
	Total        float64
	Utilisation  float64
}

// GranularitySweep varies the initial level-0 boxes per processor:
// finer decompositions balance better but pay more messages.
func GranularitySweep(gpps []int, o Options) []GranularityRow {
	o.setDefaults()
	var rows []GranularityRow
	for i, r := range sweep(gpps, o, func(s *scenario.Scenario, g int) { s.GridsPerProc = g }) {
		rows = append(rows, GranularityRow{GridsPerProc: gpps[i], Total: r.Total, Utilisation: r.Utilisation})
	}
	return rows
}

// RegridRow is one point of the regrid-interval sweep.
type RegridRow struct {
	Interval int
	Total    float64
	MaxCells int64
}

// RegridIntervalSweep varies how often the hierarchy is rebuilt.
func RegridIntervalSweep(intervals []int, o Options) []RegridRow {
	o.setDefaults()
	var rows []RegridRow
	for i, r := range sweep(intervals, o, func(s *scenario.Scenario, iv int) { s.RegridInterval = iv }) {
		rows = append(rows, RegridRow{Interval: intervals[i], Total: r.Total, MaxCells: r.MaxCells})
	}
	return rows
}

// ForecastRow compares raw-probe and NWS-forecast cost evaluation
// under one traffic condition.
type ForecastRow struct {
	Traffic               string
	RawTotal, FcTotal     float64
	RawRedists, FcRedists int
}

// ForecastAblation runs the distributed DLB with and without
// NWS-style forecasting under increasingly spiky WAN traffic.
func ForecastAblation(o Options) []ForecastRow {
	o.setDefaults()
	conditions := []struct {
		name    string
		traffic func() netsim.TrafficModel
	}{
		{"steady-20%", func() netsim.TrafficModel { return netsim.ConstantTraffic{Level: 0.2} }},
		{"bursty-mild", func() netsim.TrafficModel {
			return &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.5, MeanQuiet: 20, MeanBusy: 8, Seed: o.Seed}
		}},
		{"bursty-hard", func() netsim.TrafficModel {
			return &netsim.BurstyTraffic{QuietLoad: 0.05, BusyLoad: 0.9, MeanQuiet: 10, MeanBusy: 6, Seed: o.Seed}
		}},
	}
	var jobs []job
	for _, c := range conditions {
		sys := func() *machine.System { return machine.WanPair(4, c.traffic()) }
		raw := o.spec("ShockPool3D", "distributed", 4)
		fc := raw
		fc.UseForecast = true
		jobs = append(jobs, job{raw, sys, 4}, job{fc, sys, 4})
	}
	res := runJobs(jobs)
	var rows []ForecastRow
	for i, c := range conditions {
		raw, fc := res[2*i], res[2*i+1]
		rows = append(rows, ForecastRow{
			Traffic:  c.name,
			RawTotal: raw.Total, FcTotal: fc.Total,
			RawRedists: raw.GlobalRedists, FcRedists: fc.GlobalRedists,
		})
	}
	return rows
}

// SchemeRow compares the three local-phase policies on one system.
type SchemeRow struct {
	Scheme string
	Total  float64
	Remote float64
}

// SchemeSweep runs ShockPool3D on the 4+4 WAN under each scheme:
// the paper's baseline, the paper's contribution, and the
// space-filling-curve variant of the local phase.
func SchemeSweep(o Options) []SchemeRow {
	o.setDefaults()
	var jobs []job
	for _, scheme := range []string{"parallel", "distributed", "sfc"} {
		jobs = append(jobs, job{s: o.spec("ShockPool3D", scheme, 4), size: 4})
	}
	var rows []SchemeRow
	for _, r := range runJobs(jobs) {
		rows = append(rows, SchemeRow{Scheme: r.Scheme, Total: r.Total, Remote: r.RemoteComm()})
	}
	return rows
}

// MultiSiteRow compares the schemes on a k-site system.
type MultiSiteRow struct {
	Sites                 string
	Parallel, Distributed float64
	ImprovementPct        float64
}

// MultiSiteSweep runs ShockPool3D on 2-, 3- and 4-site systems (the
// paper's future work of "including more heterogeneous machines").
func MultiSiteSweep(o Options) []MultiSiteRow {
	o.setDefaults()
	layouts := [][]int{{4, 4}, {3, 3, 3}, {2, 2, 2, 2}}
	traffic := func(a, b int) netsim.TrafficModel {
		return &netsim.BurstyTraffic{
			QuietLoad: 0.1, BusyLoad: 0.6,
			MeanQuiet: 30, MeanBusy: 15,
			Seed: o.Seed + int64(16*a+b),
		}
	}
	var jobs []job
	for _, ns := range layouts {
		sys := func() *machine.System { return machine.MultiSite(ns, traffic) }
		jobs = append(jobs, job{o.spec("ShockPool3D", "parallel", 4), sys, 4}, job{o.spec("ShockPool3D", "distributed", 4), sys, 4})
	}
	res := runJobs(jobs)
	var rows []MultiSiteRow
	for i, ns := range layouts {
		par, dist := res[2*i].Total, res[2*i+1].Total
		rows = append(rows, MultiSiteRow{
			Sites:          fmt.Sprint(ns),
			Parallel:       par,
			Distributed:    dist,
			ImprovementPct: metrics.Improvement(par, dist),
		})
	}
	return rows
}

// AblationReport renders all ablations.
func AblationReport(o Options, f Format) string {
	o.setDefaults()
	var parts []string

	t := metrics.NewTable(
		"Ablation — imbalance trigger ε (ShockPool3D, 4+4 WAN)",
		"eps", "total-time", "evals", "redists")
	for _, r := range EpsSweep([]float64{0.01, 0.05, 0.2, 0.5}, o) {
		t.AddRow(fmt.Sprintf("%.2f", r.Eps), r.Total, r.GlobalEvals, r.GlobalRedists)
	}
	parts = append(parts, f.section(t, ""))

	t = metrics.NewTable(
		"Ablation — decomposition granularity (level-0 boxes per processor)",
		"grids/proc", "total-time", "utilisation")
	for _, r := range GranularitySweep([]int{1, 2, 4, 8}, o) {
		t.AddRow(r.GridsPerProc, r.Total, r.Utilisation)
	}
	parts = append(parts, f.section(t, ""))

	t = metrics.NewTable(
		"Ablation — regrid interval (level-0 steps between regrids)",
		"interval", "total-time", "peak-cells")
	for _, r := range RegridIntervalSweep([]int{1, 2, 4}, o) {
		t.AddRow(r.Interval, r.Total, r.MaxCells)
	}
	parts = append(parts, f.section(t, ""))

	t = metrics.NewTable(
		"Extension — NWS-style forecasting of probe measurements (paper's future work)",
		"traffic", "raw-total", "forecast-total", "raw-redists", "forecast-redists")
	for _, r := range ForecastAblation(o) {
		t.AddRow(r.Traffic, r.RawTotal, r.FcTotal, r.RawRedists, r.FcRedists)
	}
	parts = append(parts, f.section(t, ""))

	t = metrics.NewTable(
		"Ablation — local-phase policy (ShockPool3D, 4+4 WAN)",
		"scheme", "total-time", "remote-comm")
	for _, r := range SchemeSweep(o) {
		t.AddRow(r.Scheme, r.Total, r.Remote)
	}
	parts = append(parts, f.section(t, ""))

	t = metrics.NewTable(
		"Extension — multi-site systems (paper's future work)",
		"sites", "parallel-dlb", "distributed-dlb", "improvement%")
	for _, r := range MultiSiteSweep(o) {
		t.AddRow(r.Sites, r.Parallel, r.Distributed, r.ImprovementPct)
	}
	parts = append(parts, f.section(t, ""))
	return strings.Join(parts, "\n")
}
