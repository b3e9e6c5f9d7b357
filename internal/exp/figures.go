package exp

import "samrdlb/internal/metrics"

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

// fig3Jobs is Figure 3's job list: per configuration, the parallel DLB
// on a 2n-processor Origin2000 then on the n+n WAN system.
func fig3Jobs(o Options) []job {
	var jobs []job
	for _, n := range o.Configs {
		par := o.spec("ShockPool3D", "parallel", 2*n)
		par.Testbed = "origin"
		jobs = append(jobs, job{s: par, size: n}, job{s: o.spec("ShockPool3D", "parallel", n), size: n})
	}
	return jobs
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
	return fig7Rows(o.Configs, runJobs(fig7Jobs(dataset, o)))
}

// fig7Jobs is Figure 7's job list: per configuration, the parallel run
// then the distributed one.
func fig7Jobs(dataset string, o Options) []job {
	var jobs []job
	for _, n := range o.Configs {
		jobs = append(jobs, job{s: o.spec(dataset, "parallel", n), size: n}, job{s: o.spec(dataset, "distributed", n), size: n})
	}
	return jobs
}

// fig7Rows folds fig7Jobs' results into rows, in configuration order.
func fig7Rows(configs []int, res []*metrics.Result) []Fig7Row {
	var rows []Fig7Row
	for i, n := range configs {
		par, dist := res[2*i], res[2*i+1]
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

// Fig8 reproduces Figure 8 for one dataset, from Figure 7's runs plus
// a sequential run for E(1).
func Fig8(dataset string, o Options) []Fig8Row {
	_, rows := fig7And8(dataset, o)
	return rows
}

// fig7And8 runs one dataset's Figure 7 sweep with the sequential E(1)
// run on the same job list, and returns both figures' rows.
func fig7And8(dataset string, o Options) ([]Fig7Row, []Fig8Row) {
	o.setDefaults()
	res := runJobs(append(fig7Jobs(dataset, o), sequentialJob(dataset, o)))
	rows := fig7Rows(o.Configs, res)
	return rows, fig8Rows(res[len(res)-1].Total, rows)
}

// fig8Rows derives Figure 8 from Figure 7's rows and E(1).
func fig8Rows(e1 float64, fig7 []Fig7Row) []Fig8Row {
	var rows []Fig8Row
	for _, row := range fig7 {
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
