package exp

import (
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
)

// Band records a range the paper reports, for paper-vs-measured
// comparison in EXPERIMENTS.md and the sanity tests.
type Band struct {
	MinPct, MaxPct, AvgPct float64
}

// Fig7Bands are the paper's reported execution-time improvements of
// distributed DLB over parallel DLB.
var Fig7Bands = map[string]Band{
	"AMR64":       {MinPct: 9.0, MaxPct: 45.9, AvgPct: 29.7},
	"ShockPool3D": {MinPct: 2.6, MaxPct: 44.2, AvgPct: 23.7},
}

// Fig8Bands are the paper's reported efficiency improvements.
var Fig8Bands = map[string]Band{
	"AMR64":       {MinPct: 9.9, MaxPct: 84.8},
	"ShockPool3D": {MinPct: 2.6, MaxPct: 79.4},
}

// Fig3Row is one configuration of Figure 3: ENZO with the parallel
// DLB on a parallel machine versus on a WAN-connected distributed
// system, decomposed into computation and communication time.
type Fig3Row struct {
	Config                string
	ParCompute, ParComm   float64
	DistCompute, DistComm float64
	ParTotal, DistTotal   float64
}

// Fig3 reproduces Figure 3 (ShockPool3D, parallel DLB on both
// systems).
func Fig3(o Options) []Fig3Row {
	o.setDefaults()
	var rows []Fig3Row
	for _, n := range o.Configs {
		par := mustRun("ShockPool3D", "parallel", machine.Origin2000("ANL", 2*n), o, nil)
		dist := mustRun("ShockPool3D", "parallel", systemFor("ShockPool3D", n, o.Seed), o, nil)
		rows = append(rows, Fig3Row{
			Config:      ConfigName(n),
			ParCompute:  par.Compute(),
			ParComm:     par.Comm() + par.Overhead(),
			DistCompute: dist.Compute(),
			DistComm:    dist.Comm() + dist.Overhead(),
			ParTotal:    par.Total,
			DistTotal:   dist.Total,
		})
	}
	return rows
}

// Fig7Row is one configuration of Figure 7: total execution time
// under each scheme, and the relative improvement.
type Fig7Row struct {
	Config                string
	Parallel, Distributed float64
	ImprovementPct        float64
	ParallelResult        *metrics.Result
	DistributedResult     *metrics.Result
}

// Fig7 reproduces Figure 7 for one dataset (AMR64 on the LAN system,
// ShockPool3D on the WAN system).
func Fig7(dataset string, o Options) []Fig7Row {
	o.setDefaults()
	var rows []Fig7Row
	for _, n := range o.Configs {
		par := mustRun(dataset, "parallel", systemFor(dataset, n, o.Seed), o, nil)
		dist := mustRun(dataset, "distributed", systemFor(dataset, n, o.Seed), o, nil)
		rows = append(rows, Fig7Row{
			Config:            ConfigName(n),
			Parallel:          par.Total,
			Distributed:       dist.Total,
			ImprovementPct:    metrics.Improvement(par.Total, dist.Total),
			ParallelResult:    par,
			DistributedResult: dist,
		})
	}
	return rows
}

// AvgImprovement returns the mean improvement over the rows.
func AvgImprovement(rows []Fig7Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.ImprovementPct
	}
	return sum / float64(len(rows))
}

// Fig8Row is one configuration of Figure 8: efficiency under each
// scheme and the relative efficiency improvement.
type Fig8Row struct {
	Config             string
	ParallelEfficiency float64
	DistEfficiency     float64
	ImprovementPct     float64
}

// Fig8 reproduces Figure 8 for one dataset, reusing Fig7's runs plus
// a sequential run for E(1).
func Fig8(dataset string, o Options) []Fig8Row {
	o.setDefaults()
	e1 := Sequential(dataset, o).Total
	var rows []Fig8Row
	for _, row := range Fig7(dataset, o) {
		p := row.ParallelResult.PerfSum
		ep := metrics.Efficiency(e1, row.Parallel, p)
		ed := metrics.Efficiency(e1, row.Distributed, p)
		rows = append(rows, Fig8Row{
			Config:             row.Config,
			ParallelEfficiency: ep,
			DistEfficiency:     ed,
			// The paper reports the relative efficiency increase.
			ImprovementPct: 100 * (ed - ep) / ep,
		})
	}
	return rows
}

// GammaRow is one point of the γ-sensitivity ablation (the parameter
// study Section 6 lists as future work).
type GammaRow struct {
	Gamma         float64
	Total         float64
	GlobalRedists int
	GlobalEvals   int
}

// GammaSweep runs ShockPool3D on the 4+4 WAN system across γ values.
func GammaSweep(gammas []float64, o Options) []GammaRow {
	o.setDefaults()
	var rows []GammaRow
	for _, g := range gammas {
		r := sweepPoint(o, func(eo *engine.Options) { eo.Gamma = g })
		rows = append(rows, GammaRow{
			Gamma:         g,
			Total:         r.Total,
			GlobalRedists: r.GlobalRedists,
			GlobalEvals:   r.GlobalEvals,
		})
	}
	return rows
}
