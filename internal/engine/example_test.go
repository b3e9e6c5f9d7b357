package engine_test

import (
	"fmt"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/workload"
)

func ExampleRunner_Run() {
	// The paper's headline comparison on a small deterministic system:
	// ShockPool3D over a dedicated (traffic-free) WAN, parallel DLB vs
	// distributed DLB.
	run := func(policy string) float64 {
		b, err := dlb.NewPolicy(policy)
		if err != nil {
			panic(err)
		}
		sys := machine.WanPair(2, nil)
		r := engine.New(sys, workload.NewShockPool3D(16, 2), engine.Options{
			Steps: 4, MaxLevel: 1, Balancer: b,
		})
		return r.Run().Total
	}
	par := run("parallel")
	dist := run("distributed")
	fmt.Println("distributed DLB wins:", metrics.Improvement(par, dist) > 0)
	// Output:
	// distributed DLB wins: true
}
