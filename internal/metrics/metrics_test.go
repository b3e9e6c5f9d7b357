package metrics

import (
	"math"
	"strings"
	"testing"

	"samrdlb/internal/vclock"
)

func sample() *Result {
	r := &Result{
		Scheme: "distributed-dlb", Dataset: "ShockPool3D", SystemName: "wan",
		Procs: 8, PerfSum: 8, Steps: 10, Total: 10, Utilisation: 0.9,
	}
	r.Breakdown[vclock.Compute] = 4
	r.Breakdown[vclock.LocalComm] = 1
	r.Breakdown[vclock.RemoteComm] = 3
	r.Breakdown[vclock.DLBOverhead] = 0.5
	r.Breakdown[vclock.Redistribution] = 1
	r.Breakdown[vclock.Regrid] = 0.5
	return r
}

func TestResultAccessors(t *testing.T) {
	r := sample()
	if r.Compute() != 4 || r.LocalComm() != 1 || r.RemoteComm() != 3 {
		t.Error("phase accessors wrong")
	}
	if r.Comm() != 4 {
		t.Errorf("Comm = %v", r.Comm())
	}
	if r.Overhead() != 2 {
		t.Errorf("Overhead = %v", r.Overhead())
	}
	s := r.String()
	for _, want := range []string{"ShockPool3D", "distributed-dlb", "remote"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

// TestIdentitySeesOneULPAndNoWire: a one-ulp move of any float changes
// the identity, which the 3-decimal String() cannot see, while the
// wall-paced transport counters never do.
func TestIdentitySeesOneULPAndNoWire(t *testing.T) {
	a, b := sample(), sample()
	b.Breakdown[vclock.Regrid] = math.Nextafter(b.Breakdown[vclock.Regrid], 1)
	if a.String() != b.String() || a.Identity() == b.Identity() {
		t.Errorf("one ulp: String equal %v, Identity equal %v; want true, false",
			a.String() == b.String(), a.Identity() == b.Identity())
	}
	b = sample()
	b.TransportFaults, b.TransportFallbacks, b.TransportFrames, b.TransportBytes, b.TransportTimeouts = 1, 2, 3, 4, 5
	if a.Identity() != b.Identity() {
		t.Errorf("transport counters reached the identity:\n%s\n%s", a.Identity(), b.Identity())
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 75); math.Abs(got-25) > 1e-12 {
		t.Errorf("Improvement = %v", got)
	}
	if got := Improvement(100, 120); math.Abs(got+20) > 1e-12 {
		t.Errorf("negative improvement = %v", got)
	}
	if Improvement(0, 5) != 0 {
		t.Error("zero base must yield 0")
	}
}

func TestEfficiency(t *testing.T) {
	// E(1)=100, E=25 on 8 procs -> 0.5.
	if got := Efficiency(100, 25, 8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Efficiency = %v", got)
	}
	if Efficiency(100, 0, 8) != 0 || Efficiency(100, 10, 0) != 0 {
		t.Error("degenerate efficiency must be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "config", "time")
	tb.AddRow("4+4", 1.23456)
	tb.AddRow("8+8", 42)
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
	s := tb.String()
	if !strings.Contains(s, "My Title") || !strings.Contains(s, "1.235") || !strings.Contains(s, "42") {
		t.Errorf("table render wrong:\n%s", s)
	}
	// Columns aligned: header row contains both names.
	first := strings.Split(s, "\n")[1]
	if !strings.Contains(first, "config") || !strings.Contains(first, "time") {
		t.Errorf("header row wrong: %q", first)
	}
	// The markdown rendering carries the same cells.
	want := "### My Title\n\n| config | time |\n|---|---|\n| 4+4 | 1.235 |\n| 8+8 | 42 |\n"
	if md := tb.Markdown(); md != want {
		t.Errorf("markdown render:\n%s\nwant:\n%s", md, want)
	}
}

func TestHistoryRecordsAndRenders(t *testing.T) {
	h := NewHistory()
	for i := 0; i < 5; i++ {
		h.Record("a", float64(i))
		h.Record("b", 2)
	}
	if len(h.Get("a")) != 5 || h.Get("a")[3] != 3 {
		t.Error("series values wrong")
	}
	if len(h.order) != 2 || h.order[0] != "a" {
		t.Errorf("order = %v", h.order)
	}
	s := h.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "[0 .. 4]") {
		t.Errorf("render wrong:\n%s", s)
	}
	if h.Get("zz") != nil {
		t.Error("missing series must be nil")
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Record("x", 1)
	if h.Get("x") != nil || h.String() != "" {
		t.Error("nil history must be inert")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	s := Sparkline([]float64{0, 1})
	if []rune(s)[0] != '▁' || []rune(s)[1] != '█' {
		t.Errorf("sparkline extremes wrong: %q", s)
	}
	// Constant series stays at the floor glyph.
	if c := Sparkline([]float64{5, 5, 5}); c != "▁▁▁" {
		t.Errorf("constant sparkline = %q", c)
	}
}
