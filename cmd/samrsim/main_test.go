package main

import "testing"

// TestScenarioRejectsUnknownNames: a replay spec naming a policy or a
// dataset nothing is registered under is a malformed spec (exit 2), not
// a silent replay of the default scenario.
func TestScenarioRejectsUnknownNames(t *testing.T) {
	for _, spec := range []string{
		"seed=1 n=8 steps=1 scheme=knapsak",
		"seed=1 n=8 steps=1 policy=nope",
		"seed=1 n=8 steps=1 dataset=ShockPool",
	} {
		if code := runScenario(spec, false); code != 2 {
			t.Errorf("-scenario %q: exit %d, want 2", spec, code)
		}
	}
	if code := runScenario("seed=1 n=8 steps=1 maxlevel=1 scheme=knapsack dataset=blob", false); code != 0 {
		t.Errorf("a well-formed spec must still replay: exit %d", code)
	}
}
