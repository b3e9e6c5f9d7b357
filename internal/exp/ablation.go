package exp

import (
	"fmt"
	"strings"

	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
)

// Ablations beyond the paper's figures: the sensitivity studies its
// Section 6 lists as future work (γ is in report.go; here the
// imbalance trigger, decomposition granularity, regrid interval, the
// NWS forecasting integration, the local-phase policy and the
// multi-site extension).

// forecastTraffic are the forecasting study's WAN traffic conditions,
// increasingly spiky.
var forecastTraffic = []struct {
	name    string
	traffic func(seed int64) netsim.TrafficModel
}{
	{"steady-20%", func(int64) netsim.TrafficModel { return netsim.ConstantTraffic{Level: 0.2} }},
	{"bursty-mild", func(seed int64) netsim.TrafficModel {
		return &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.5, MeanQuiet: 20, MeanBusy: 8, Seed: seed}
	}},
	{"bursty-hard", func(seed int64) netsim.TrafficModel {
		return &netsim.BurstyTraffic{QuietLoad: 0.05, BusyLoad: 0.9, MeanQuiet: 10, MeanBusy: 6, Seed: seed}
	}},
}

// forecastJobs is the forecasting study's job list: per condition of
// forecastTraffic, the distributed DLB on the 4+4 WAN costing moves
// from raw probes, then from NWS-style forecasts.
func forecastJobs(o Options) []job {
	var jobs []job
	for _, c := range forecastTraffic {
		sys := func() *machine.System { return machine.WanPair(4, c.traffic(o.Seed)) }
		raw := o.spec("ShockPool3D", "distributed", 4)
		fc := raw
		fc.UseForecast = true
		jobs = append(jobs, job{raw, sys, 4}, job{fc, sys, 4})
	}
	return jobs
}

// multiSiteLayouts are the multi-site study's systems, as processors
// per site.
var multiSiteLayouts = [][]int{{4, 4}, {3, 3, 3}, {2, 2, 2, 2}}

// multiSiteJobs is the multi-site study's job list (the paper's future
// work of "including more heterogeneous machines"): per layout of
// multiSiteLayouts, the parallel DLB then the distributed one on
// ShockPool3D, each pair of sites on its own bursty link.
func multiSiteJobs(o Options) []job {
	traffic := func(a, b int) netsim.TrafficModel {
		return &netsim.BurstyTraffic{
			QuietLoad: 0.1, BusyLoad: 0.6,
			MeanQuiet: 30, MeanBusy: 15,
			Seed: o.Seed + int64(16*a+b),
		}
	}
	var jobs []job
	for _, ns := range multiSiteLayouts {
		sys := func() *machine.System { return machine.MultiSite(ns, traffic) }
		jobs = append(jobs, job{o.spec("ShockPool3D", "parallel", 4), sys, 4}, job{o.spec("ShockPool3D", "distributed", 4), sys, 4})
	}
	return jobs
}

// AblationReport renders all ablations.
func AblationReport(o Options, f Format) string {
	o.setDefaults()
	var parts []string
	add := func(t *metrics.Table) { parts = append(parts, f.section(t, "")) }

	t := metrics.NewTable(
		"Ablation — imbalance trigger ε (ShockPool3D, 4+4 WAN)",
		"eps", "total-time", "evals", "redists")
	epss := []float64{0.01, 0.05, 0.2, 0.5}
	for i, r := range sweep(epss, o, setEps) {
		t.AddRow(fmt.Sprintf("%.2f", epss[i]), r.Total, r.GlobalEvals, r.GlobalRedists)
	}
	add(t)

	// Finer decompositions balance better but pay more messages.
	t = metrics.NewTable(
		"Ablation — decomposition granularity (level-0 boxes per processor)",
		"grids/proc", "total-time", "utilisation")
	gpps := []int{1, 2, 4, 8}
	for i, r := range sweep(gpps, o, setGridsPerProc) {
		t.AddRow(gpps[i], r.Total, r.Utilisation)
	}
	add(t)

	t = metrics.NewTable(
		"Ablation — regrid interval (level-0 steps between regrids)",
		"interval", "total-time", "peak-cells")
	intervals := []int{1, 2, 4}
	for i, r := range sweep(intervals, o, setRegridInterval) {
		t.AddRow(intervals[i], r.Total, r.MaxCells)
	}
	add(t)

	t = metrics.NewTable(
		"Extension — NWS-style forecasting of probe measurements (paper's future work)",
		"traffic", "raw-total", "forecast-total", "raw-redists", "forecast-redists")
	res := runJobs(forecastJobs(o))
	for i, c := range forecastTraffic {
		raw, fc := res[2*i], res[2*i+1]
		t.AddRow(c.name, raw.Total, fc.Total, raw.GlobalRedists, fc.GlobalRedists)
	}
	add(t)

	// The paper's baseline, the paper's contribution, and the
	// space-filling-curve variant of the local phase.
	t = metrics.NewTable(
		"Ablation — local-phase policy (ShockPool3D, 4+4 WAN)",
		"scheme", "total-time", "remote-comm")
	for _, r := range sweep([]string{"parallel", "distributed", "sfc"}, o, setScheme) {
		t.AddRow(r.Scheme, r.Total, r.RemoteComm())
	}
	add(t)

	t = metrics.NewTable(
		"Extension — multi-site systems (paper's future work)",
		"sites", "parallel-dlb", "distributed-dlb", "improvement%")
	res = runJobs(multiSiteJobs(o))
	for i, ns := range multiSiteLayouts {
		par, dist := res[2*i].Total, res[2*i+1].Total
		t.AddRow(fmt.Sprint(ns), par, dist, metrics.Improvement(par, dist))
	}
	add(t)
	return strings.Join(parts, "\n")
}
