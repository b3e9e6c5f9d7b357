package dlb_test

import (
	"reflect"
	"testing"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/netsim"
	"samrdlb/internal/workload"
)

// TestPolicyReproducibility is the cross-seed determinism pin for
// every registered policy: a full engine run is byte-identically
// reproducible — two runs of the same (policy, seed) have equal Result
// identities — across multiple traffic seeds. Stateful policies rely on the
// registry handing every run a fresh instance.
func TestPolicyReproducibility(t *testing.T) {
	for _, name := range dlb.PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7} {
				run := func() string {
					bal, err := dlb.NewPolicy(name)
					if err != nil {
						t.Fatal(err)
					}
					traffic := &netsim.BurstyTraffic{
						QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15, Seed: seed,
					}
					sys := machine.WanPair(2, traffic)
					res := engine.New(sys, workload.NewShockPool3D(12, 2), engine.Options{
						Steps: 4, Balancer: bal, MaxLevel: 2,
					}).Run()
					return res.Identity()
				}
				a, b := run(), run()
				if a != b {
					t.Fatalf("policy %s seed %d not byte-identical across runs:\n%s\n%s", name, seed, a, b)
				}
			}
		})
	}
}

// TestPolicyRunsLeaveGateUntouched is the regression test for the
// latent paper-scheme assumption: a policy that never runs the Eq. 1
// gate (diffusion, parallel) must finish a faultless run with the
// LastGain/LastCost/LastGamma snapshot still zero — the engine only
// copies them when the decision marks GainCostValid — while gated
// policies on an imbalanced system record a non-zero γ.
func TestPolicyRunsLeaveGateUntouched(t *testing.T) {
	for _, name := range []string{"diffusion", "diffusion-sos", "parallel"} {
		bal, err := dlb.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		res := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(12, 2), engine.Options{
			Steps: 4, Balancer: bal, MaxLevel: 2,
		}).Run()
		if res.LastGain != 0 || res.LastCost != 0 || res.LastGamma != 0 {
			t.Errorf("%s: gate snapshot should stay zero, got gain=%g cost=%g gamma=%g",
				name, res.LastGain, res.LastCost, res.LastGamma)
		}
	}
}

// TestPolicyResultsDiverge sanity-checks that the tournament has
// something to compare: the paper scheme and the parallel baseline do
// not produce structurally identical results on a WAN system.
func TestPolicyResultsDiverge(t *testing.T) {
	results := map[string]interface{}{}
	for _, name := range []string{"distributed", "parallel"} {
		bal, _ := dlb.NewPolicy(name)
		res := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(12, 2), engine.Options{
			Steps: 4, Balancer: bal, MaxLevel: 2,
		}).Run()
		res.Scheme = "" // ignore the labelling difference
		results[name] = *res
	}
	if reflect.DeepEqual(results["distributed"], results["parallel"]) {
		t.Fatal("distributed and parallel runs were identical; the comparison measures nothing")
	}
}
