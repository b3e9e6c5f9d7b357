// AMR64 — the galaxy-cluster-formation workload — on the LAN-connected
// pair of machines, carrying real field data: the hyperbolic tracer is
// advected, the Poisson potential relaxed, and the particles
// integrated for real while the distributed execution is modelled.
package main

import (
	"fmt"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/solver"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

func main() {
	traffic := &netsim.BurstyTraffic{QuietLoad: 0.05, BusyLoad: 0.4, MeanQuiet: 20, MeanBusy: 10, Seed: 11}

	run := func(policy string) (*metrics.Result, *engine.Runner) {
		b, err := dlb.NewPolicy(policy)
		if err != nil {
			panic(err)
		}
		sys := machine.LanPair(4, traffic)
		driver := workload.NewAMR64(32, 2, 11)
		r := engine.New(sys, driver, engine.Options{
			Steps:    8,
			Balancer: b,
			MaxLevel: 2,
			WithData: true,              // real numerics
			Pool:     solver.NewPool(0), // across all host cores
		})
		return r.Run(), r
	}

	par, _ := run("parallel")
	dist, runner := run("distributed")

	tbl := metrics.NewTable("AMR64 on 4+4 LAN (real field data)", "metric", "parallel", "distributed")
	tbl.AddRow("total (s)", par.Total, dist.Total)
	tbl.AddRow("compute (s)", par.Compute(), dist.Compute())
	tbl.AddRow("remote comm (s)", par.RemoteComm(), dist.RemoteComm())
	tbl.AddRow("DLB overhead (s)", par.Breakdown[vclock.DLBOverhead], dist.Breakdown[vclock.DLBOverhead])
	tbl.AddRow("peak cells", par.MaxCells, dist.MaxCells)
	fmt.Print(tbl.String())
	fmt.Printf("\nimprovement: %.1f%% (paper reports 9.0%%–45.9%% for AMR64)\n",
		metrics.Improvement(par.Total, dist.Total))

	// Show the real solution state after the run.
	h := runner.Hierarchy()
	var mass, cells float64
	for _, g := range h.Grids(0) {
		mass += g.Patch.Sum(solver.FieldRho)
		cells += float64(g.NumCells())
	}
	fmt.Printf("\nfinal level-0 state: %d grids, mean density %.4f, hierarchy levels in use: %d\n",
		len(h.Grids(0)), mass/cells, h.NumLevels())
}
