package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"samrdlb/internal/dlb"
	"samrdlb/internal/golden"
)

// figures runs the command in-process.
func figures(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestStructureAndProbeFigures: -fig structure and -fig probe print the
// goldens internal/exp pins, in either format.
func TestStructureAndProbeFigures(t *testing.T) {
	for _, fig := range []string{"structure", "probe"} {
		want, err := os.ReadFile("../../internal/exp/testdata/" + fig + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		code, out, stderr := figures("-fig", fig)
		if code != 0 || stderr != "" {
			t.Fatalf("-fig %s: exit %d: %s", fig, code, stderr)
		}
		if d := golden.Diff(string(want), out); d != "" {
			t.Errorf("-fig %s differs from internal/exp/testdata/%s.txt at %s", fig, fig, d)
		}
		code, md, _ := figures("-fig", fig, "-format", "md")
		if code != 0 || !strings.HasPrefix(md, "### ") || !strings.Contains(md, "|---|") {
			t.Errorf("-fig %s -format md: exit %d, output:\n%s", fig, code, md)
		}
	}
}

// TestUnknownValuesExit2: a -fig or -format nothing answers to exits 2
// with one line on stderr and nothing on stdout.
func TestUnknownValuesExit2(t *testing.T) {
	for _, args := range [][]string{{"-fig", "6"}, {"-fig", "probe", "-format", "html"}} {
		code, out, stderr := figures(args...)
		if code != 2 || out != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, one line", args, code, out, stderr)
		}
	}
}

// TestFigUsageListsEveryFigure: -fig's usage string is the list of its
// values the docs are checked against, so it names every key of figs.
func TestFigUsageListsEveryFigure(t *testing.T) {
	_, _, usage := figures("-h")
	_, list, _ := strings.Cut(usage, "\t")
	list, _, _ = strings.Cut(list, " (default")
	got := strings.Fields(strings.ReplaceAll(list, "|", " "))
	if len(got) != len(figs) {
		t.Errorf("-fig usage lists %v, figs has %d values", got, len(figs))
	}
	for _, fig := range got {
		if figs[fig] == nil {
			t.Errorf("-fig usage lists %q, which figs does not answer", fig)
		}
	}
}

// TestTournamentFigure: -fig tournament ranks every registered policy,
// one row each, in either format.
func TestTournamentFigure(t *testing.T) {
	for _, format := range []string{"text", "md"} {
		code, out, stderr := figures("-fig", "tournament", "-format", format)
		if code != 0 || stderr != "" {
			t.Fatalf("-fig tournament -format %s: exit %d: %s", format, code, stderr)
		}
		for _, name := range dlb.PolicyNames() {
			row := regexp.MustCompile(`(?m)^\|? ?[1-9][0-9]* +\|? ?` + regexp.QuoteMeta(name) + ` `)
			if n := len(row.FindAllString(out, -1)); n != 1 {
				t.Errorf("-format %s: %d ranked rows for %s, want 1:\n%s", format, n, name, out)
			}
		}
	}
}
