package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestCheckConfigRejectsMisconfiguration: each of these used to reach
// a constructor and print a goroutine dump; each is now one error that
// names the flag, before anything is built.
func TestCheckConfigRejectsMisconfiguration(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, maxLevel, domain int
		ckptDir, flag       string
	}{
		{0, 2, 32, "", "-n"},
		{-1, 2, 32, "", "-n"},
		{4, -1, 32, "", "-maxlevel"},
		{4, 2, 0, "", "-domain"},
		{4, 2, -8, "", "-domain"},
		{4, 2, 32, filepath.Join(file, "ck"), "-ckpt-dir"}, // a directory under a regular file
	} {
		err := checkConfig(tc.n, tc.maxLevel, tc.domain, tc.ckptDir)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") && !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("checkConfig(n=%d maxlevel=%d domain=%d ckpt-dir=%q) = %v, want an error naming %s",
				tc.n, tc.maxLevel, tc.domain, tc.ckptDir, err, tc.flag)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("error is more than one line: %q", err)
		}
	}
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := checkConfig(1, 0, 1, dir); err != nil {
		t.Fatalf("the smallest valid configuration was rejected: %v", err)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("the checkpoint directory was not created: %v", err)
	}
}
