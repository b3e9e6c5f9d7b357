// ShockPool3D on the WAN system under different network conditions:
// the distributed DLB adapts its redistribution decisions to the
// observed traffic (Section 4.2's probe feeding Eq. 1), so the number
// of global redistributions falls as the WAN gets busier while the
// scheme keeps beating the parallel DLB.
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
	conditions := []struct {
		name    string
		traffic netsim.TrafficModel
	}{
		{"dedicated (no traffic)", netsim.ConstantTraffic{Level: 0}},
		{"lightly shared (20%)", netsim.ConstantTraffic{Level: 0.2}},
		{"bursty (10%/60%)", &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15, Seed: 7}},
		{"congested (85%)", netsim.ConstantTraffic{Level: 0.85}},
	}

	tbl := metrics.NewTable(
		"ShockPool3D, 4+4 over MREN OC-3, 12 level-0 steps",
		"network", "parallel(s)", "distributed(s)", "improv%", "redists", "evals")

	for _, c := range conditions {
		run := func(policy string) *metrics.Result {
			b, err := dlb.NewPolicy(policy)
			if err != nil {
				panic(err)
			}
			sys := machine.WanPair(4, c.traffic)
			return engine.New(sys, workload.NewShockPool3D(32, 2), engine.Options{
				Steps: 12, Balancer: b, MaxLevel: 2,
			}).Run()
		}
		par := run("parallel")
		dist := run("distributed")
		tbl.AddRow(c.name, par.Total, dist.Total,
			metrics.Improvement(par.Total, dist.Total),
			dist.GlobalRedists, dist.GlobalEvals)
	}
	fmt.Print(tbl.String())
	fmt.Println("\nnote how redistributions become rarer as the shared WAN gets busier:")
	fmt.Println("the probe raises the measured cost (Eq. 1) and the gain test (Gain > γ·Cost) vetoes the move.")
}
