package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// samrsim runs the command in-process.
func samrsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// small keeps a run to a fraction of a second.
var small = []string{"-steps", "4", "-domain", "16", "-maxlevel", "1"}

func with(base []string, more ...string) []string { return append(slices.Clone(base), more...) }

// TestScenarioRejectsUnknownNames: a replay spec naming a policy, a
// dataset or a key nothing is registered under is a malformed spec
// (exit 2), not a silent replay of the default scenario.
func TestScenarioRejectsUnknownNames(t *testing.T) {
	for _, spec := range []string{
		"seed=1 n=8 steps=1 policy=knapsak",
		"seed=1 n=8 steps=1 scheme=knapsack",
		"seed=1 n=8 steps=1 dataset=ShockPool",
		"seed=1 n=8 steps=1 check=plan,datta",
	} {
		if code, _, _ := samrsim("-scenario", spec); code != 2 {
			t.Errorf("-scenario %q: exit %d, want 2", spec, code)
		}
	}
	if code, _, stderr := samrsim("-scenario", "seed=1 n=8 steps=1 maxlevel=1 policy=knapsack dataset=blob"); code != 0 {
		t.Errorf("a well-formed spec must still replay: exit %d: %s", code, stderr)
	}
}

// TestCheckConfigRejectsMisconfiguration: each of these used to reach
// a constructor and print a goroutine dump; each is one line that names
// the flag and exit 2, before anything is built — whether it arrives by
// flag or inside a spec.
func TestCheckConfigRejectsMisconfiguration(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "-1"}, "-n"},
		{[]string{"-maxlevel", "-1"}, "-maxlevel"},
		{[]string{"-domain", "0"}, "-domain"},
		{[]string{"-domain", "-8"}, "-domain"},
		{[]string{"-ckpt-dir", filepath.Join(file, "ck")}, "-ckpt-dir"}, // a directory under a regular file
		{[]string{"-transport", "tcp"}, "-transport"},
		// A removed transport is refused with the accepted values named,
		// never run as some other data path.
		{[]string{"-data", "-transport=loopback"}, `-transport "loopback": not tcp, nor empty`},
		{[]string{"-scenario", "data=1 transport=loopback"}, `-transport "loopback": not tcp, nor empty`},
		{[]string{"-scenario", "procs=0"}, "-n"},
		{[]string{"-scenario", "n=0"}, "-domain"},
		{[]string{"-scenario", "system=lan groups=2x1,2x1"}, "-system"},
		{[]string{"-scenario", "steps=4 cut=4"}, "cut="},
		{[]string{"-scenario", "faults=proc-fail:proc=99:at=1"}, "-faults"}, // proc 99 of 8
		{[]string{"-resume"}, "-resume"},
	} {
		code, stdout, stderr := samrsim(tc.args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "samrsim: "+tc.flag) {
			t.Errorf("samrsim %v: exit %d, stderr %q; want exit 2 and one line naming %s", tc.args, code, stderr, tc.flag)
		}
		if strings.Count(stderr, "\n") != 1 {
			t.Errorf("samrsim %v: error is not one line: %q", tc.args, stderr)
		}
	}
	dir := filepath.Join(t.TempDir(), "a", "b")
	if code, _, stderr := samrsim("-n", "1", "-maxlevel", "0", "-domain", "1", "-steps", "1", "-ckpt-dir", dir); code != 0 {
		t.Fatalf("the smallest valid configuration was rejected: %s", stderr)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("the checkpoint directory was not created: %v", err)
	}
}

// TestWireSetupFailureIsOneLine: a tcp wire that cannot be set up (no
// handshake finishes within 1ns) is a run error — one "samrsim:" line
// and exit 1 — not a constructor panic and its goroutine dump.
func TestWireSetupFailureIsOneLine(t *testing.T) {
	code, stdout, stderr := samrsim(with(small, "-data", "-transport=tcp", "-wire-timeout", "1ns")...)
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
		!strings.HasPrefix(stderr, "samrsim: engine: mpx: handshake with shard 1: ") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and one samrsim: line", code, stdout, stderr)
	}
}

// TestFlagsAndSpecAreOneDescription: that the run flags and the spec
// they encode are the same run is TestGoldenMatrix's spec form. Next to
// -scenario a run flag is refused by name, never a silent override;
// -check is the exception and adds to the spec's oracles.
func TestFlagsAndSpecAreOneDescription(t *testing.T) {
	if code, _, stderr := samrsim("-scenario", "steps=2", "-data"); code != 2 || !strings.Contains(stderr, "-data") {
		t.Errorf("-scenario with -data: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := samrsim("-scenario", "steps=2 n=16 maxlevel=1 check=plan", "-check=invariants"); code != 0 ||
		!strings.Contains(stderr, "check=plan,invariants") || !strings.Contains(stderr, "invariants: every checked phase held") {
		t.Errorf("-scenario with -check: exit %d, stderr %q", code, stderr)
	}
}

// TestResumeRefusesAnotherRunsStore: a store resumes only into the run
// that wrote it. A different dataset, policy, seed or threshold is one
// line naming the key; more steps or another transport is the same run
// and finishes byte-identical to the uninterrupted one.
func TestResumeRefusesAnotherRunsStore(t *testing.T) {
	base := with(small, "-data", "-steps", "6", "-ckpt-interval", "2")
	dir := t.TempDir()
	if code, _, stderr := samrsim(with(base, "-ckpt-dir", dir, "-stop-after", "3")...); code != 3 {
		t.Fatalf("interrupted run: exit %d: %s", code, stderr)
	}
	for key, change := range map[string][]string{
		"dataset": {"-dataset", "SedovBlast"},
		"policy":  {"-policy", "knapsack"},
		"seed":    {"-seed", "7"},
		"gamma":   {"-gamma", "8"},
	} {
		code, stdout, stderr := samrsim(with(with(base, change...), "-ckpt-dir", dir, "-resume")...)
		if code == 0 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, key+"=") {
			t.Errorf("-resume %v: exit %d, stdout %q, stderr %q; want a one-line refusal naming %s", change, code, stdout, stderr, key)
		}
	}
	// The refusals above must not have cost the store its generations.
	for _, same := range [][]string{nil, {"-transport", "tcp"}, {"-steps", "8"}} {
		full, part := t.TempDir(), t.TempDir()
		copyDir(t, dir, part)
		args := with(base, same...)
		_, want, _ := samrsim(with(args, "-ckpt-dir", full)...)
		code, got, stderr := samrsim(with(args, "-ckpt-dir", part, "-resume")...)
		// The wire line counts this process's frames, which a resumed
		// run sends fewer of; like Result.Identity(), the comparison
		// leaves it out.
		want, got = wireLine.ReplaceAllString(want, ""), wireLine.ReplaceAllString(got, "")
		if code != 0 || got != want {
			t.Errorf("-resume %v: exit %d, differs from the uninterrupted run:\n%s\n--- full\n%s--- resumed\n%s", same, code, stderr, want, got)
		}
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(to, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSuperviseDropsNoFlag: under -supervise every flag is forwarded to
// the workers, kept in the parent, or refused by name with exit 2. The
// workers' argv is the canonical spec plus the forwarded flags, built
// from the parsed flags and not from the supervisor's own argv.
func TestSuperviseDropsNoFlag(t *testing.T) {
	for _, refused := range [][]string{
		{"-trace"}, {"-series"}, {"-save", "h.ck"}, {"-stop-after", "1"}, {"-resume"}, {"-bench-out", "x"}, {"-check=data"},
	} {
		code, stdout, stderr := samrsim(with(with(small, "-supervise", "-data"), refused...)...)
		name, _, _ := strings.Cut(refused[0], "=")
		if code != 2 || stdout != "" || !strings.Contains(stderr, strings.TrimPrefix(name, "-")) {
			t.Errorf("-supervise %v: exit %d, stderr %q; want exit 2 naming the flag", refused, code, stderr)
		}
	}
	if code, _, stderr := samrsim("-supervise"); code != 2 || !strings.Contains(stderr, "-data") {
		t.Errorf("-supervise without -data: exit %d, stderr %q", code, stderr)
	}

	fs := flag.NewFlagSet("", flag.ContinueOnError)
	spec := new(flags).register(fs)
	if err := fs.Parse([]string{"-policy", "knapsack", "-data", "-n", "2", "-check=plan,invariants", "-ckpt-dir", "D",
		"-wire-timeout", "5s", "-supervise", "-cpuprofile", "c", "-memprofile", "m", "-recovery-report", "-max-restarts", "1"}); err != nil {
		t.Fatal(err)
	}
	args, err := workerArgs(fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-scenario", spec.Encode(), "-ckpt-dir=D", "-wire-timeout=5s"}
	if !slices.Equal(args, want) {
		t.Errorf("worker argv %q, want %q", args, want)
	}
	for _, tok := range []string{"policy=knapsack", "procs=2", "data=true", "check=plan,invariants"} {
		if !strings.Contains(" "+args[1]+" ", " "+tok+" ") {
			t.Errorf("the workers' spec %q lacks %s", args[1], tok)
		}
	}
}

// TestProfilesAreWrittenOnEveryPath: -cpuprofile and -memprofile used to
// be skipped by the paths that exited early.
func TestProfilesAreWrittenOnEveryPath(t *testing.T) {
	cpu, mem := filepath.Join(t.TempDir(), "cpu"), filepath.Join(t.TempDir(), "mem")
	if code, _, stderr := samrsim("-scenario", "steps=2 n=16 maxlevel=1", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: empty or missing (%v)", f, err)
		}
	}
}
