package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"samrdlb/internal/golden"
)

// fastOpts keeps test sweeps quick while preserving the dynamics.
func fastOpts() Options {
	return Options{Steps: 6, Configs: []int{2, 4}, Seed: 42}
}

func TestFig3Shape(t *testing.T) {
	rows := Fig3(fastOpts())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Computation must be (nearly) identical: same processors.
		if relDiff(r.ParCompute, r.DistCompute) > 0.05 {
			t.Errorf("%s: compute differs: par %v dist %v", r.Config, r.ParCompute, r.DistCompute)
		}
		// Distributed communication must be much larger than parallel.
		if r.DistComm < 3*r.ParComm {
			t.Errorf("%s: distributed comm %v not ≫ parallel comm %v", r.Config, r.DistComm, r.ParComm)
		}
		// And the distributed total larger overall.
		if r.DistTotal <= r.ParTotal {
			t.Errorf("%s: distributed total %v should exceed parallel %v", r.Config, r.DistTotal, r.ParTotal)
		}
	}
}

func TestFig7DistributedWins(t *testing.T) {
	for _, ds := range []string{"AMR64", "ShockPool3D"} {
		rows := Fig7(ds, fastOpts())
		for _, r := range rows {
			if r.ImprovementPct <= 0 {
				t.Errorf("%s %s: distributed DLB must win, improvement %.1f%%", ds, r.Config, r.ImprovementPct)
			}
			// The paper's improvements peak at ~46%; anything beyond
			// 75% would mean our model overstates the effect badly.
			if r.ImprovementPct > 75 {
				t.Errorf("%s %s: improvement %.1f%% implausibly large", ds, r.Config, r.ImprovementPct)
			}
		}
		avg := AvgImprovement(rows)
		// Paper averages: 29.7% and 23.7%. Accept a generous band.
		if avg < 5 || avg > 60 {
			t.Errorf("%s: avg improvement %.1f%% outside plausible band", ds, avg)
		}
	}
}

func TestFig7ImprovementBandsFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	o := Options{Steps: 10, Seed: 42}
	for _, ds := range []string{"AMR64", "ShockPool3D"} {
		rows := Fig7(ds, o)
		band := Fig7Bands[ds]
		avg := AvgImprovement(rows)
		// The measured average should be within 15 percentage points
		// of the paper's — the substrate differs, the shape must not.
		if avg < band.AvgPct-15 || avg > band.AvgPct+15 {
			t.Errorf("%s: avg improvement %.1f%% vs paper avg %.1f%%", ds, avg, band.AvgPct)
		}
		for _, r := range rows {
			if r.ImprovementPct < band.MinPct-15 || r.ImprovementPct > band.MaxPct+15 {
				t.Errorf("%s %s: improvement %.1f%% far outside paper band [%.1f, %.1f]",
					ds, r.Config, r.ImprovementPct, band.MinPct, band.MaxPct)
			}
		}
	}
}

func TestFig8EfficiencyImproves(t *testing.T) {
	for _, ds := range []string{"ShockPool3D"} {
		rows := Fig8(ds, fastOpts())
		for _, r := range rows {
			if r.DistEfficiency <= r.ParallelEfficiency {
				t.Errorf("%s %s: distributed efficiency %v must beat parallel %v",
					ds, r.Config, r.DistEfficiency, r.ParallelEfficiency)
			}
			if r.ParallelEfficiency <= 0 || r.ParallelEfficiency > 1.2 {
				t.Errorf("%s %s: efficiency out of range: %v", ds, r.Config, r.ParallelEfficiency)
			}
		}
	}
}

func TestEfficiencyDecreasesWithScale(t *testing.T) {
	// More processors on a WAN → lower efficiency (the paper's Fig 8
	// bars shrink left to right).
	rows := Fig8("ShockPool3D", fastOpts())
	if rows[1].DistEfficiency >= rows[0].DistEfficiency {
		t.Errorf("efficiency should fall with scale: %v then %v",
			rows[0].DistEfficiency, rows[1].DistEfficiency)
	}
}

func TestGammaSweepMonotoneRedistributions(t *testing.T) {
	o := fastOpts()
	rows := GammaSweep([]float64{0.5, 8}, o)
	if rows[0].GlobalRedists < rows[1].GlobalRedists {
		t.Errorf("low gamma should redistribute at least as often: %d vs %d",
			rows[0].GlobalRedists, rows[1].GlobalRedists)
	}
}

// TestRunsAreReproducible: the same sweep twice on the pool gives equal
// rows, every Result they point at included.
func TestRunsAreReproducible(t *testing.T) {
	o := fastOpts()
	a := Fig7("ShockPool3D", o)
	b := Fig7("ShockPool3D", o)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not reproducible:\n%+v\n%+v", a, b)
	}
}

// sweepRows is what every sweep returns at one core count.
type sweepRows struct {
	Fig3               []Fig3Row
	Fig7AMR, Fig7Shock []Fig7Row
	Fig8               []Fig8Row
	Gamma              []GammaRow
	Eps                []EpsRow
	Granularity        []GranularityRow
	Regrid             []RegridRow
	Forecast           []ForecastRow
	Scheme             []SchemeRow
	MultiSite          []MultiSiteRow
	Tournament         string
}

// sweepsAt runs the sweeps at GOMAXPROCS procs: all of them, or under
// -short Figure 7 on ShockPool3D and a smaller tournament.
func sweepsAt(t *testing.T, procs int) sweepRows {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	o := fastOpts()
	s := sweepRows{Fig7Shock: Fig7("ShockPool3D", o)}
	scenarios := 2
	if !testing.Short() {
		scenarios = 5
		s.Fig3 = Fig3(o)
		s.Fig7AMR = Fig7("AMR64", o)
		s.Fig8 = Fig8("ShockPool3D", o)
		s.Gamma = GammaSweep([]float64{0.5, 2, 8}, o)
		s.Eps = EpsSweep([]float64{0.01, 0.5}, o)
		s.Granularity = GranularitySweep([]int{1, 8}, o)
		s.Regrid = RegridIntervalSweep([]int{1, 4}, o)
		s.Forecast = ForecastAblation(o)
		s.Scheme = SchemeSweep(o)
		s.MultiSite = MultiSiteSweep(o)
	}
	tour, err := RunTournament(TournamentOptions{Scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	js, err := tour.BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	s.Tournament = string(js)
	return s
}

// TestSweepsIdenticalAcrossGOMAXPROCS pins the sweeps' serial-order
// contract: runs execute on the solver pool in any order, but every row
// (and every Result behind it) and the tournament's artifact are the
// same at 1, 2 and 4 cores.
func TestSweepsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	want := sweepsAt(t, 1)
	for _, procs := range []int{2, 4} {
		if got := sweepsAt(t, procs); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: sweeps differ from GOMAXPROCS=1:\n%+v\n---\n%+v", procs, got, want)
		}
	}
}

func TestSequentialHasNoComm(t *testing.T) {
	r := runJobs([]job{sequentialJob("ShockPool3D", fastOpts())})[0]
	if r.Comm() != 0 {
		t.Errorf("sequential comm = %v", r.Comm())
	}
}

func TestConfigName(t *testing.T) {
	if ConfigName(4) != "4+4" {
		t.Errorf("ConfigName = %s", ConfigName(4))
	}
}

func TestReportsRender(t *testing.T) {
	o := Options{Steps: 4, Configs: []int{2}, Seed: 1}
	for name, txt := range map[string]string{
		"fig3":  Fig3Report(o, Text),
		"fig7":  Fig7Report("ShockPool3D", o, Text),
		"fig8":  Fig8Report("ShockPool3D", o, Text),
		"gamma": GammaReport(o, Text),
	} {
		if !strings.Contains(txt, "2+2") && name != "gamma" {
			t.Errorf("%s report missing config row:\n%s", name, txt)
		}
		if len(txt) < 100 {
			t.Errorf("%s report suspiciously short", name)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d / m
}

func TestEpsSweepMoreEvalsAtLowerEps(t *testing.T) {
	rows := EpsSweep([]float64{0.01, 0.5}, fastOpts())
	if rows[0].GlobalEvals < rows[1].GlobalEvals {
		t.Errorf("lower eps should evaluate at least as often: %d vs %d",
			rows[0].GlobalEvals, rows[1].GlobalEvals)
	}
}

func TestGranularitySweepUtilisation(t *testing.T) {
	rows := GranularitySweep([]int{1, 8}, fastOpts())
	for _, r := range rows {
		if r.Total <= 0 || r.Utilisation <= 0 {
			t.Errorf("bad granularity row: %+v", r)
		}
	}
}

func TestRegridIntervalSweep(t *testing.T) {
	rows := RegridIntervalSweep([]int{1, 4}, fastOpts())
	for _, r := range rows {
		if r.Total <= 0 || r.MaxCells <= 0 {
			t.Errorf("bad regrid row: %+v", r)
		}
	}
}

func TestForecastAblationRuns(t *testing.T) {
	rows := ForecastAblation(fastOpts())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RawTotal <= 0 || r.FcTotal <= 0 {
			t.Errorf("bad forecast row: %+v", r)
		}
	}
}

func TestMultiSiteDistributedWins(t *testing.T) {
	rows := MultiSiteSweep(fastOpts())
	for _, r := range rows {
		if r.ImprovementPct <= 0 {
			t.Errorf("distributed DLB must win on %s: %+v", r.Sites, r)
		}
	}
}

func TestAblationReportRenders(t *testing.T) {
	txt := AblationReport(Options{Steps: 3, Configs: []int{2}, Seed: 1}, Text)
	for _, want := range []string{"imbalance trigger", "granularity", "regrid interval", "NWS", "multi-site"} {
		if !strings.Contains(txt, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}

func TestSchemeSweep(t *testing.T) {
	rows := SchemeSweep(fastOpts())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]SchemeRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// Both group-aware schemes must beat the baseline.
	for _, s := range []string{"distributed-dlb", "sfc-dlb"} {
		if byName[s].Total >= byName["parallel-dlb"].Total {
			t.Errorf("%s (%v) should beat parallel (%v)", s, byName[s].Total, byName["parallel-dlb"].Total)
		}
	}
}

// TestMarkdownReport renders the evaluation both ways, each pinned byte
// for byte: the output of `figures -steps 3` and of `figures -steps 3
// -format md`. The markdown carries every table the text does — Figure 3's totals
// and the ablations included — and the two differ in nothing but the
// rendering of each table.
func TestMarkdownReport(t *testing.T) {
	o := Options{Steps: 3, Seed: 42}
	md, txt := Report(o, Markdown), Report(o, Text)
	golden.Check(t, "testdata/report.txt", txt)
	golden.Check(t, "testdata/report.md", md)
	for _, want := range []string{
		"# SAMR distributed DLB reproduction", "### Figure 3", "### Figure 7", "### Figure 8", "| 2+2 |",
		"| config | par-compute | par-comm | par-total | dist-compute | dist-comm | dist-total |",
		"γ sensitivity", "### Ablation — regrid interval", "### Extension — multi-site systems",
		"|\n\nmeasured: avg improvement",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Same tables in the same order: a "### " heading in the one is a
	// title line above a column header in the other.
	var titles []string
	for _, line := range strings.Split(md, "\n") {
		if title, ok := strings.CutPrefix(line, "### "); ok {
			titles = append(titles, title)
		}
	}
	if len(titles) != 12 {
		t.Errorf("markdown has %d tables, want 12: %q", len(titles), titles)
	}
	rest := txt
	for _, title := range titles {
		i := strings.Index(rest, title+"\n")
		if i < 0 {
			t.Fatalf("text report lacks table %q (or has it out of order)", title)
		}
		rest = rest[i:]
	}
}

// TestStructureAndProbeReports pins `figures -fig structure` and
// `figures -fig probe` at their default options, and checks that
// Figure 6 lists the gain/cost decisions and the redistributions they
// invoked in one time order.
func TestStructureAndProbeReports(t *testing.T) {
	o := Options{Steps: 10, Seed: 42}
	structure := StructureReport(o, Text)
	golden.Check(t, "testdata/structure.txt", structure)
	golden.Check(t, "testdata/probe.txt", ProbeReport(o, Text))

	_, fig6, _ := strings.Cut(structure, "Figure 6")
	last, redists := -1.0, 0
	for _, line := range strings.Split(fig6, "\n") {
		var vt float64
		var kind string
		if n, _ := fmt.Sscanf(line, "%f %s", &vt, &kind); n != 2 {
			continue
		}
		if vt < last {
			t.Errorf("Figure 6 goes back in time at %q", line)
		}
		last = vt
		if kind == "redistribution" {
			redists++
		}
	}
	if redists == 0 {
		t.Errorf("Figure 6 shows no redistribution:\n%s", fig6)
	}
}
