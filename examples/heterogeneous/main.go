// Heterogeneous processors — the capability the paper's scheme claims
// but could not evaluate ("the compute nodes used in the experiments
// ... have the same performance"): a fast 4-processor machine joined
// to a half-speed 4-processor machine over a WAN. The distributed DLB
// assigns workload proportionally to the relative performance weights
// (Section 4.4's W × n·p / Σ n·p partitioning), while the parallel
// DLB's even split overloads the slow machine.
package main

import (
	"fmt"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/workload"
)

func main() {
	traffic := &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.5, MeanQuiet: 25, MeanBusy: 10, Seed: 3}

	run := func(policy string) (*metrics.Result, map[int]int64) {
		b, err := dlb.NewPolicy(policy)
		if err != nil {
			panic(err)
		}
		sys := machine.Heterogeneous(4, 4, 0.5, traffic) // group 1 at half speed
		r := engine.New(sys, workload.NewShockPool3D(32, 2), engine.Options{
			Steps: 10, Balancer: b, MaxLevel: 2,
		})
		res := r.Run()
		cells := map[int]int64{}
		for _, g := range r.Hierarchy().Grids(0) {
			cells[sys.GroupOf(g.Owner)] += g.NumCells()
		}
		return res, cells
	}

	par, parCells := run("parallel")
	dist, distCells := run("distributed")

	fmt.Println("system: 4 fast procs (perf 1.0) + 4 slow procs (perf 0.5) over a shared WAN")
	fmt.Printf("ideal level-0 split: %.0f%% fast / %.0f%% slow (proportional to n·p)\n\n",
		100*4.0/6.0, 100*2.0/6.0)

	tbl := metrics.NewTable("final level-0 distribution and timing",
		"scheme", "fast-group cells", "slow-group cells", "total (s)")
	tbl.AddRow("parallel-dlb", parCells[0], parCells[1], par.Total)
	tbl.AddRow("distributed-dlb", distCells[0], distCells[1], dist.Total)
	fmt.Print(tbl.String())

	fmt.Printf("\nimprovement from weight-proportional balancing: %.1f%%\n",
		metrics.Improvement(par.Total, dist.Total))
}
