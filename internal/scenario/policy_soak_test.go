package scenario

import (
	"flag"
	"fmt"
	"testing"

	"samrdlb/internal/dlb"
)

// -policy-scenarios=N turns on the differential policy soak: N
// generated scenario envelopes, each executed once per registered
// balancer policy under the policy-scoped invariant oracle (CI runs
// 200 under -race). The differential angle: every policy faces the
// exact same systems, workloads, fault schedules and resume cuts, so a
// violation isolates the policy rather than the envelope.
var policyScenarios = flag.Int("policy-scenarios", 0,
	"number of generated scenarios for TestDifferentialPolicySoak, each run under every policy (0 = skip)")

// TestDifferentialPolicySweep is the always-on slice: a handful of
// generated envelopes crossed with every registered policy must hold
// each policy's scoped invariants.
func TestDifferentialPolicySweep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, policy := range dlb.PolicyNames() {
			seed, policy := seed, policy
			t.Run(fmt.Sprintf("seed%d/%s", seed, policy), func(t *testing.T) {
				t.Parallel()
				sc := Generate(seed)
				sc.Scheme = policy
				sc.Normalize()
				if out := sc.ExecuteWithHistory(nil); out.Failed() {
					failNow(t, sc, out)
				}
			})
		}
	}
}

// TestDifferentialPolicySoak runs -policy-scenarios=N envelopes × all
// policies; failures shrink to a minimal replayable reproducer and
// land in $SAMR_REPRO_DIR for artifact upload.
func TestDifferentialPolicySoak(t *testing.T) {
	n := *policyScenarios
	if n <= 0 {
		t.Skip("policy soak disabled; run with -policy-scenarios=N")
	}
	for i := 0; i < n; i++ {
		seed := int64(20000 + i)
		for _, policy := range dlb.PolicyNames() {
			seed, policy := seed, policy
			t.Run(fmt.Sprintf("seed%d/%s", seed, policy), func(t *testing.T) {
				t.Parallel()
				sc := soakGenerate(t, seed)
				sc.Scheme = policy
				sc.Normalize()
				if out := sc.ExecuteWithHistory(nil); out.Failed() {
					failNow(t, sc, out)
				}
			})
		}
	}
}
