package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"samrdlb/internal/golden"
	"samrdlb/internal/metrics"
)

// fastOpts keeps test sweeps quick while preserving the dynamics.
func fastOpts() Options {
	return Options{Steps: 6, Configs: []int{2, 4}, Seed: 42}
}

func TestFig3Shape(t *testing.T) {
	o := fastOpts()
	res := runJobs(fig3Jobs(o))
	if len(res) != 2*len(o.Configs) {
		t.Fatalf("runs = %d", len(res))
	}
	// Communication counts the DLB overhead, as Figure 3's bars do.
	comm := func(r *metrics.Result) float64 { return r.Comm() + r.Overhead() }
	for i, n := range o.Configs {
		par, dist := res[2*i], res[2*i+1]
		// Computation must be (nearly) identical: same processors.
		if relDiff(par.Compute(), dist.Compute()) > 0.05 {
			t.Errorf("%s: compute differs: par %v dist %v", ConfigName(n), par.Compute(), dist.Compute())
		}
		// Distributed communication must be much larger than parallel.
		if comm(dist) < 3*comm(par) {
			t.Errorf("%s: distributed comm %v not ≫ parallel comm %v", ConfigName(n), comm(dist), comm(par))
		}
		// And the distributed total larger overall.
		if dist.Total <= par.Total {
			t.Errorf("%s: distributed total %v should exceed parallel %v", ConfigName(n), dist.Total, par.Total)
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
	res := sweep([]float64{0.5, 8}, fastOpts(), setGamma)
	if res[0].GlobalRedists < res[1].GlobalRedists {
		t.Errorf("low gamma should redistribute at least as often: %d vs %d",
			res[0].GlobalRedists, res[1].GlobalRedists)
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

// study is one study's runs, in job order.
type study struct {
	name string
	res  []*metrics.Result
}

// studiesAt runs the studies at GOMAXPROCS procs: all of them, or under
// -short Figure 7 on ShockPool3D and a smaller tournament, whose
// artifact it returns.
func studiesAt(t *testing.T, procs int) ([]study, string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	o := fastOpts()
	studies := []study{{"fig7 ShockPool3D", runJobs(fig7Jobs("ShockPool3D", o))}}
	scenarios := 2
	if !testing.Short() {
		scenarios = 5
		studies = append(studies,
			study{"fig3", runJobs(fig3Jobs(o))},
			study{"fig7 AMR64", runJobs(fig7Jobs("AMR64", o))},
			study{"fig8 ShockPool3D", runJobs(append(fig7Jobs("ShockPool3D", o), sequentialJob("ShockPool3D", o)))},
			study{"gamma", sweep([]float64{0.5, 2, 8}, o, setGamma)},
			study{"eps", sweep([]float64{0.01, 0.5}, o, setEps)},
			study{"granularity", sweep([]int{1, 8}, o, setGridsPerProc)},
			study{"regrid interval", sweep([]int{1, 4}, o, setRegridInterval)},
			study{"forecast", runJobs(forecastJobs(o))},
			study{"scheme", sweep([]string{"parallel", "distributed", "sfc"}, o, setScheme)},
			study{"multi-site", runJobs(multiSiteJobs(o))},
		)
	}
	tour, err := RunTournament(TournamentOptions{Scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	js, err := tour.BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	return studies, string(js)
}

// TestSweepsIdenticalAcrossGOMAXPROCS pins the sweeps' serial-order
// contract: runs execute on the solver pool in any order, but every run
// of every study, in job order, and the tournament's artifact are the
// same at 1, 2 and 4 cores.
func TestSweepsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	want, wantTour := studiesAt(t, 1)
	for _, procs := range []int{2, 4} {
		got, tour := studiesAt(t, procs)
		for i, st := range want {
			if len(got[i].res) != len(st.res) {
				t.Errorf("GOMAXPROCS=%d: %s has %d runs, want %d", procs, st.name, len(got[i].res), len(st.res))
				continue
			}
			for j, r := range st.res {
				if g, w := got[i].res[j].Identity(), r.Identity(); g != w {
					t.Errorf("GOMAXPROCS=%d: %s job %d differs from GOMAXPROCS=1:\n%s\n---\n%s", procs, st.name, j, g, w)
				}
			}
		}
		if tour != wantTour {
			t.Errorf("GOMAXPROCS=%d: tournament differs from GOMAXPROCS=1:\n%s\n---\n%s", procs, tour, wantTour)
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
	res := sweep([]float64{0.01, 0.5}, fastOpts(), setEps)
	if res[0].GlobalEvals < res[1].GlobalEvals {
		t.Errorf("lower eps should evaluate at least as often: %d vs %d",
			res[0].GlobalEvals, res[1].GlobalEvals)
	}
}

func TestGranularitySweepUtilisation(t *testing.T) {
	gpps := []int{1, 8}
	for i, r := range sweep(gpps, fastOpts(), setGridsPerProc) {
		if r.Total <= 0 || r.Utilisation <= 0 {
			t.Errorf("%d grids/proc: total %v, utilisation %v", gpps[i], r.Total, r.Utilisation)
		}
	}
}

func TestRegridIntervalSweep(t *testing.T) {
	intervals := []int{1, 4}
	for i, r := range sweep(intervals, fastOpts(), setRegridInterval) {
		if r.Total <= 0 || r.MaxCells <= 0 {
			t.Errorf("interval %d: total %v, peak cells %d", intervals[i], r.Total, r.MaxCells)
		}
	}
}

func TestForecastAblationRuns(t *testing.T) {
	res := runJobs(forecastJobs(fastOpts()))
	if len(forecastTraffic) != 3 || len(res) != 2*len(forecastTraffic) {
		t.Fatalf("%d traffic conditions, %d runs: want 3 and 6", len(forecastTraffic), len(res))
	}
	for i, c := range forecastTraffic {
		if raw, fc := res[2*i], res[2*i+1]; raw.Total <= 0 || fc.Total <= 0 {
			t.Errorf("%s: raw total %v, forecast total %v", c.name, raw.Total, fc.Total)
		}
	}
}

func TestMultiSiteDistributedWins(t *testing.T) {
	res := runJobs(multiSiteJobs(fastOpts()))
	for i, ns := range multiSiteLayouts {
		par, dist := res[2*i].Total, res[2*i+1].Total
		if imp := metrics.Improvement(par, dist); imp <= 0 {
			t.Errorf("distributed DLB must win on %v: parallel %v, distributed %v (%.1f%%)", ns, par, dist, imp)
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
	res := sweep([]string{"parallel", "distributed", "sfc"}, fastOpts(), setScheme)
	byName := map[string]*metrics.Result{}
	for _, r := range res {
		byName[r.Scheme] = r
	}
	if len(byName) != 3 {
		t.Fatalf("%d distinct schemes ran, want 3", len(byName))
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
