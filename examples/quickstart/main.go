// Quickstart: run the paper's headline comparison in a few lines —
// ShockPool3D on a 4+4 WAN-connected distributed system, parallel DLB
// versus distributed DLB.
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
	// A shared WAN whose background traffic alternates between quiet
	// and busy periods, like MREN between ANL and NCSA.
	traffic := &netsim.BurstyTraffic{
		QuietLoad: 0.1, BusyLoad: 0.6,
		MeanQuiet: 30, MeanBusy: 15, Seed: 42,
	}

	run := func(policy string) *metrics.Result {
		b, err := dlb.NewPolicy(policy)
		if err != nil {
			panic(err)
		}
		sys := machine.WanPair(4, traffic) // 4 procs at ANL + 4 at NCSA
		driver := workload.NewShockPool3D(32, 2)
		return engine.New(sys, driver, engine.Options{
			Steps:    10,
			Balancer: b,
			MaxLevel: 2,
		}).Run()
	}

	par := run("parallel")
	dist := run("distributed")

	fmt.Println("parallel DLB:   ", par)
	fmt.Println("distributed DLB:", dist)
	fmt.Printf("\nexecution time improvement: %.1f%% (paper reports 2.6%%–44.2%% for ShockPool3D)\n",
		metrics.Improvement(par.Total, dist.Total))
}
