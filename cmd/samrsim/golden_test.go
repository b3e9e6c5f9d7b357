package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"samrdlb/internal/dlb"
	"samrdlb/internal/golden"
	"samrdlb/internal/scenario"
)

// goldenClasses are the configurations that must print the same bytes.
// Each (policy, class) pair is one file, testdata/golden/<policy>/<class>.txt:
// the stdout every row of the class prints, then an "identity:" line with
// the Result.Identity() every row ends with. A row runs in a fresh
// directory wherever it says {dir}, and a -resume row first runs its
// interrupted half, with -stop-after 1 in the place of -resume.
var goldenClasses = []struct {
	name string
	rows [][]string
}{
	{"shock", [][]string{
		{},
		{"-data"},
		{"-data", "-check=plan"},
		{"-data", "-check=data"},
		{"-check=ledger,invariants"},
		{"-data", "-transport=tcp", "-check=plan,ledger"},
	}},
	{"amr64", [][]string{
		{"-dataset", "AMR64", "-system", "lan", "-n", "8", "-trace", "-series"},
		{"-dataset", "AMR64", "-system", "lan", "-n", "8", "-trace", "-series", "-check=plan,ledger"},
	}},
	{"faults", [][]string{
		{"-faults", "testdata/faults.txt", "-faultseed", "9", "-ckpt-interval", "2", "-quorum", "2"},
		{"-faults", "testdata/faults.txt", "-faultseed", "9", "-ckpt-interval", "2", "-quorum", "2", "-check=invariants,ledger"},
	}},
	{"origin", [][]string{
		{"-system", "origin", "-n", "6", "-seed", "7", "-gamma", "1.5"},
	}},
	{"ckpt", [][]string{
		{"-ckpt-dir", "{dir}", "-ckpt-interval", "1"},
		{"-ckpt-dir", "{dir}", "-ckpt-interval", "1", "-resume"},
	}},
}

// wireLine is the one line a tcp row adds: the wall-paced transport
// counters, which Result.Identity() leaves out too.
var wireLine = regexp.MustCompile(`(?m)^wire transport: .*\n`)

// TestGoldenMatrix runs every policy on every row of every class and
// compares the output with the class's file; `go test -update` rewrites
// the files from each class's first row. The first row and one more,
// which rotates with the policy so that every row takes its turn, also
// run as -scenario '<spec>' plus their other flags: the run flags and the
// spec they encode are one description of the run.
func TestGoldenMatrix(t *testing.T) {
	for p, policy := range dlb.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			base := []string{"-domain", "16", "-steps", "4", "-maxlevel", "2", "-policy", policy}
			for _, class := range goldenClasses {
				var want string
				for i, row := range class.rows {
					for _, asSpec := range []bool{false, true} {
						if asSpec && i != 0 && i != p%len(class.rows) {
							continue
						}
						got := goldenRun(t, with(base, row...), asSpec)
						if i == 0 && !asSpec {
							want = got
							golden.Check(t, filepath.Join("testdata", "golden", policy, class.name+".txt"), got)
						} else if d := golden.Diff(want, got); d != "" {
							t.Errorf("%s: row %q (spec form %v) departs from row %q at %s", class.name, row, asSpec, class.rows[0], d)
						}
					}
				}
			}
		})
	}
}

// goldenRun runs one row and returns its stdout, minus a tcp row's wire
// line, followed by the identity line.
func goldenRun(t *testing.T, args []string, asSpec bool) string {
	t.Helper()
	tcp := slices.Contains(args, "-transport=tcp")
	if i := slices.Index(args, "{dir}"); i >= 0 {
		args[i] = t.TempDir()
	}
	if i := slices.Index(args, "-resume"); i >= 0 {
		cut := slices.Replace(slices.Clone(args), i, i+1, "-stop-after", "1")
		if code, stdout, stderr := samrsim(specForm(t, cut, asSpec)...); code != 3 || stdout != "" {
			t.Fatalf("samrsim %q: exit %d, stdout %q; want 3 and none: %s", cut, code, stdout, stderr)
		}
	}
	args = specForm(t, args, asSpec)
	var stdout, stderr bytes.Buffer
	f := &flags{stdout: &stdout, stderr: &stderr}
	if code := f.run(args); code != 0 || f.result == nil {
		t.Fatalf("samrsim %q: exit %d: %s", args, code, stderr.String())
	}
	out := stdout.String()
	if wire := wireLine.MatchString(out); wire != tcp {
		t.Errorf("samrsim %q: wire transport line printed %v, want %v", args, wire, tcp)
	}
	return wireLine.ReplaceAllString(out, "") + "identity: " + f.result.Identity() + "\n"
}

// specForm returns args unchanged, or, asSpec, as the same run spelled
// -scenario '<spec.Encode()>' followed by the flags that are not run
// flags.
func specForm(t *testing.T, args []string, asSpec bool) []string {
	if !asSpec {
		return args
	}
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	spec := new(flags).register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	out := []string{"-scenario", spec.Encode()}
	fs.Visit(func(fl *flag.Flag) {
		if !scenario.IsRunFlag(fl.Name) {
			out = append(out, "-"+fl.Name+"="+fl.Value.String())
		}
	})
	return out
}
