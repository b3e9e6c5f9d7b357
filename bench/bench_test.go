package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/exp"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/machine"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() with -child, which under `go
// test` is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		var spec repSpec
		if err := json.Unmarshal([]byte(os.Args[2]), &spec); err != nil {
			os.Exit(2)
		}
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// TestSmoke runs all six workloads at toy sizes through the whole
// harness — child processes, decorators, probes, output checks, the
// results file — in a few seconds.
func TestSmoke(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	h, err := newHarness(42, true, out)
	if err != nil {
		t.Fatal(err)
	}
	p := passes{untraced: true, reps: 1, traced: true}
	res := h.run(workloadDefs, p)
	if len(res.Workloads) != len(workloadDefs) {
		t.Fatalf("got %d workload reports, want %d", len(res.Workloads), len(workloadDefs))
	}
	for i, w := range res.Workloads {
		def := workloadDefs[i]
		if w.OpsFailed != 0 || w.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, w.OpsFailed, w.OpsAttempted, w.Failures)
		}
		for _, m := range endToEndDefs {
			s, ok := w.EndToEnd[m.Name]
			if ok != m.appliesTo(def.name) {
				t.Errorf("%s: end-to-end metric %s present=%v, applies=%v", w.Name, m.Name, ok, m.appliesTo(def.name))
			}
			if ok && (s.Median <= 0 || s.Unit != m.Unit || s.N != 1) {
				t.Errorf("%s: %s = %+v, want a positive median in %s over 1 rep", w.Name, m.Name, s, m.Unit)
			}
		}
		for _, m := range perLayerDefs {
			if _, ok := w.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		if len(w.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics reported, %d defined", w.Name, len(w.PerLayer), len(perLayerDefs))
		}
		if c := w.PerLayer["bench.span_coverage"]; c < 0.95 || c > 1.0001 {
			t.Errorf("%s: phase spans cover %.3f of the run, want >= 0.95", w.Name, c)
		}
		if w.PerLayer["engine.level_steps"] <= 0 || w.PerLayer["solver.cells_updated"] <= 0 {
			t.Errorf("%s: no level steps or cell updates counted", w.Name)
		}
		checkSpansFile(t, filepath.Join(out, w.Name+".spans.jsonl"), int(w.PerLayer["bench.spans"]))
	}
	// Layer metrics land where the workload exercises the layer.
	for name, metric := range map[string]string{
		"shock-data": "amr.fill_sweep_s", "sedov-reflux": "amr.reflux_register_s",
		"shock-wire": "mpx.frames", "manygrids": "workload.flag_s",
		"campaign": "scenario.exec_n", "paper-fig7": "exp.dlb_improvement_pct",
	} {
		if res.workload(name).PerLayer[metric] <= 0 {
			t.Errorf("%s: %s is not positive", name, metric)
		}
	}
	if v := res.workload("shock-data").PerLayer["engine.parallel_speedup"]; v <= 0 {
		t.Errorf("shock-data: engine.parallel_speedup = %v", v)
	}

	// The results file round-trips and compares equal to itself.
	path := filepath.Join(out, "results.json")
	if err := writeResults(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if c := compareResults(res, back, &sink); len(c.regressions)+len(c.inexact) != 0 {
		t.Errorf("results file differs from itself: %+v", c)
	}
	// About 4 s here, 30 s under the race detector; the budget is 20 s.
	t.Logf("smoke took %v", time.Since(start))
}

func checkSpansFile(t *testing.T, path string, want int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s line %d: %v", path, n+1, err)
			return
		}
		if s.Name == "" || s.End < s.Start {
			t.Errorf("%s line %d: bad span %+v", path, n+1, s)
			return
		}
		n++
	}
	if n != want || n == 0 {
		t.Errorf("%s holds %d spans, bench.spans says %d", path, n, want)
	}
}

// TestDriverLine checks the PR driver's result line: exactly the four
// keys, every BENCHMARK.json metric of the pass, numbers with units.
func TestDriverLine(t *testing.T) {
	w := workloadReport{Name: "x", OpsAttempted: 3, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
	for _, m := range endToEndDefs {
		w.EndToEnd[m.Name] = summary{Median: 1.5, Unit: m.Unit, N: 1}
	}
	for _, untraced := range []bool{true, false} {
		line := captureStdout(t, func() {
			if !printDriverLine(&w, passes{untraced: untraced, traced: !untraced}) {
				t.Error("printDriverLine reported a missing metric")
			}
		})
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("driver line %q: %v", line, err)
		}
		if len(got) != 4 {
			t.Errorf("driver line has keys %v, want correct/attempted/failed/metrics", got)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := benchmarkJSONNames(t, untraced)
		if len(metrics) != len(want) {
			t.Errorf("untraced=%v: %d metrics on the line, BENCHMARK.json lists %d", untraced, len(metrics), len(want))
		}
		for _, name := range want {
			if m, ok := metrics[name]; !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("untraced=%v: metric %s missing or incomplete on the driver line", untraced, name)
			}
		}
	}
	delete(w.EndToEnd, "run_wall_s")
	_ = captureStdout(t, func() {
		if printDriverLine(&w, passes{untraced: true}) {
			t.Error("a missing end-to-end metric must not produce a result line")
		}
	})
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fn()
	os.Stdout = old
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func benchmarkJSONNames(t *testing.T, endToEnd bool) []string {
	b := readBenchmarkJSON(t)
	var names []string
	if endToEnd {
		for _, m := range b.EndToEnd {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range b.PerLayer {
			names = append(names, m.Name)
		}
	}
	return names
}

// TestBenchmarkJSONMatchesTables keeps the root BENCHMARK.json and the
// tables in metricsdef.go / workloads.go from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, workloads.go %q/%q", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var everywhere []metricDef
	for _, m := range endToEndDefs {
		if m.inDriverList() {
			everywhere = append(everywhere, m)
		}
	}
	if len(b.EndToEnd) != len(everywhere) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d defined for every workload", len(b.EndToEnd), len(everywhere))
	}
	for i, m := range b.EndToEnd {
		d := everywhere[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, metricsdef.go %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) || len(perLayerDefs) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d defined (at most 128)", len(b.PerLayer), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metricsdef.go %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestQuartilesFollowPythonsRule(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python.
	for _, c := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.vals)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if s := summarize([]float64{90, 100, 110, 120, 130}, "s"); math.Abs(s.spread()-0.3/1.1) > 1e-12 || s.Min != 90 || s.Max != 130 {
		t.Errorf("summary %+v, spread %v", s, s.spread())
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // n..1, unsorted on purpose
		}
		return v
	}
	for _, c := range []struct {
		n, p int
		v    float64
	}{
		{1400, 99, 1386}, // 14 samples beyond p99
		{1000, 99, 990},  // exactly 10 beyond
		{999, 98, 980},   // p99 would leave 9
		{315, 96, 303},
		{20, 50, 10.5},
		{5, 50, 3},
	} {
		p, v := tailPercentile(seq(c.n))
		if p != c.p || v != c.v {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", c.n, p, v, c.p, c.v)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"nested", []span{{Start: 110, End: 150}, {Start: 120, End: 130}}, 60},
		{"overlapping", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"concurrent", []span{{Start: 110, End: 150}, {Start: 110, End: 150}, {Start: 111, End: 149}}, 60},
		{"disjoint", []span{{Start: 100, End: 110}, {Start: 190, End: 200}}, 80},
		{"clipped", []span{{Start: 50, End: 120}, {Start: 180, End: 900}}, 60},
		{"outside", []span{{Start: 10, End: 90}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	if got := unionLen([]interval{{5, 7}, {1, 3}, {2, 6}, {10, 11}}); got != 7 {
		t.Errorf("unionLen = %d, want 7", got)
	}
}

func TestAdoptParentsByContainment(t *testing.T) {
	rec := newRecorder()
	rec.run = 1
	rec.add("a", 10, 20)  // in phase 0
	rec.add("b", 55, 300) // starts in phase 1, ends beyond it
	rec.add("c", 500, 510)
	rec.run = 2
	rec.add("other-run", 15, 16)
	rec.adopt(1, []span{{Name: "p1", Start: 50, End: 100, Parent: -1, Run: 1}, {Name: "p0", Start: 0, End: 50, Parent: -1, Run: 1}})
	want := map[string]string{"a": "p0", "b": "p1", "c": "", "other-run": ""}
	for _, s := range rec.spans {
		wantParent, ok := want[s.Name]
		if !ok {
			continue
		}
		got := ""
		if s.Parent >= 0 {
			got = rec.spans[s.Parent].Name
		}
		if got != wantParent {
			t.Errorf("span %s: parent %q, want %q", s.Name, got, wantParent)
		}
	}
}

// TestKernelDecoratorKeepsFluxedKernel: the engine chooses the
// refluxing path by asserting solver.FluxedKernel, so the decorator
// must implement it exactly when the inner kernel does.
func TestKernelDecoratorKeepsFluxedKernel(t *testing.T) {
	tr := newRunTracer(newRecorder())
	for _, c := range []struct {
		k      solver.Kernel
		fluxed bool
	}{
		{solver.Burgers3D{}, true},
		{solver.Advection3D{Vel: [3]float64{1, 0.5, 0.25}}, true},
		{solver.GaussSeidel{Sweeps: 2}, false},
	} {
		dk := traceKernel(c.k, tr)
		fk, ok := dk.(solver.FluxedKernel)
		if ok != c.fluxed {
			t.Errorf("%s: decorated kernel is FluxedKernel = %v, inner = %v", c.k.Name(), ok, c.fluxed)
		}
		if dk.Name() != c.k.Name() || dk.FlopsPerCell() != c.k.FlopsPerCell() {
			t.Errorf("%s: decorator changed Name or FlopsPerCell", c.k.Name())
		}
		newPatch := func() *grid.Patch {
			p := grid.NewPatch(geom.UnitCube(8), 0, 1, c.k.Fields()...)
			for _, f := range c.k.Fields() {
				p.FillFunc(f, func(i geom.Index) float64 { return float64(i[0]%3) * 0.25 })
			}
			return p
		}
		plain, traced := newPatch(), newPatch()
		c.k.Step(plain, 0.01, 0.125)
		if ok {
			fk.StepFluxes(traced, 0.01, 0.125).Release()
		} else {
			dk.Step(traced, 0.01, 0.125)
		}
		for _, f := range c.k.Fields() {
			if plain.Sum(f) != traced.Sum(f) {
				t.Errorf("%s: decorated step changed field %s", c.k.Name(), f)
			}
		}
	}
	if n := len(tr.rec.spans); n != 3 {
		t.Errorf("recorded %d kernel spans, want 3", n)
	}
	if got := tr.kernelCells.Load(); got != 3*512 {
		t.Errorf("kernel cells = %d, want %d", got, 3*512)
	}
}

func smallConfig(t *testing.T, policy string) singleConfig {
	t.Helper()
	bal, err := dlb.NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	return singleConfig{
		sys:    machine.WanPair(2, wanTraffic(3)),
		driver: workload.NewShockPool3D(16, 2),
		opt:    engine.Options{Steps: 3, Balancer: bal, MaxLevel: 2, WithData: true, Reflux: true},
	}
}

// TestDecoratedRunMatchesUndecorated is output check (g) for every
// registered policy: the decorators must not perturb the run.
func TestDecoratedRunMatchesUndecorated(t *testing.T) {
	for _, policy := range dlb.PolicyNames() {
		plain := runEngine(smallConfig(t, policy), nil, nil)
		rec := newRecorder()
		traced := runEngine(smallConfig(t, policy), rec, nil)
		if a, b := fingerprint(plain.result), fingerprint(traced.result); a != b {
			t.Errorf("%s: decorated Result differs:\n  plain:  %s\n  traced: %s", policy, a, b)
		}
		var ra, rb repResult
		if a, b := checkEndState(&ra, plain.runner), checkEndState(&rb, traced.runner); a != b {
			t.Errorf("%s: end-state checksum %s vs %s", policy, a, b)
		}
		if plain.cells != traced.cells || plain.steps != traced.steps || plain.cells == 0 {
			t.Errorf("%s: cell updates %d/%d, level steps %d/%d", policy, plain.cells, traced.cells, plain.steps, traced.steps)
		}
		layers := map[string]float64{}
		inRunLayers(layers, rec, []engineRun{traced})
		if c := layers["bench.span_coverage"]; c < 0.9 || c > 1.0001 {
			t.Errorf("%s: span coverage %v", policy, c)
		}
		if layers["solver.step_calls"] == 0 || layers["dlb.place_calls"] == 0 || layers["load.ledger_events"] == 0 || layers["workload.flag_calls"] == 0 {
			t.Errorf("%s: a decorator recorded nothing: %v", policy, layers)
		}
	}
}

// TestOutputChecksFire flips one value per output check and sees the
// op counted as failed.
func TestOutputChecksFire(t *testing.T) {
	def := *findWorkload("shock-data")
	good := func() rep {
		return rep{repResult: repResult{Runs: 1, Fingerprint: "R", Checksum: "c", VirtualTotalS: 2.5}}
	}
	failedOps := func(reps ...rep) int {
		var w workloadReport
		for i := range reps {
			w.count(def, fullSizing, "rep", &reps[i])
		}
		return w.OpsFailed
	}
	hasCheck := func(r *repResult, letter string) bool {
		for _, f := range r.Failures {
			if strings.HasPrefix(f, letter+":") {
				return true
			}
		}
		return false
	}

	// (a) reps must agree.
	reps := []rep{good(), good(), good()}
	checkRepsAgree(reps)
	if n := failedOps(reps...); n != 0 {
		t.Errorf("agreeing reps: %d failed ops", n)
	}
	reps[1].Fingerprint = "R'"
	reps[2].Checksum = "c'"
	checkRepsAgree(reps)
	if n := failedOps(reps...); n != 2 || !hasCheck(&reps[1].repResult, "a") || !hasCheck(&reps[2].repResult, "a") {
		t.Errorf("check a: %d failed ops, failures %v / %v", n, reps[1].Failures, reps[2].Failures)
	}

	// (g) traced rep must match; (c) shared-memory reference must match;
	// (d) plan-only reference must take the same virtual time.
	ref := good()
	for _, c := range []struct {
		letter string
		flip   func(r *rep)
		check  func(flipped, ref *rep)
	}{
		{"g", func(r *rep) { r.Fingerprint = "X" }, checkTracedMatches},
		{"g", func(r *rep) { r.Checksum = "X" }, checkTracedMatches},
		{"c", func(r *rep) { r.Fingerprint = "X" }, checkSharedMemoryMatches},
		{"c", func(r *rep) { r.Checksum = "X" }, checkSharedMemoryMatches},
		{"d", func(r *rep) { r.VirtualTotalS = math.Nextafter(r.VirtualTotalS, 3) }, checkPlanOnlyMatches},
	} {
		same := good()
		c.check(&same, &ref)
		if failedOps(same) != 0 {
			t.Errorf("check %s fired on identical reps: %v", c.letter, same.Failures)
		}
		flipped := good()
		c.flip(&flipped)
		c.check(&flipped, &ref)
		if failedOps(flipped) != 1 || !hasCheck(&flipped.repResult, c.letter) {
			t.Errorf("check %s did not fire: %v", c.letter, flipped.Failures)
		}
	}

	// (e) Figure 7's claim; (f) tournament failures.
	var e repResult
	checkImprovement(&e, 12, 8)
	if len(e.Failures) != 0 || e.DLBImprovementPct != 10 {
		t.Errorf("check e fired on positive improvements: %+v", e)
	}
	checkImprovement(&e, 12, -0.5)
	if !hasCheck(&e, "e") {
		t.Error("check e did not fire on a negative ShockPool3D improvement")
	}
	var f repResult
	scoreTournament(&f, []exp.PolicyScore{{Policy: "p", Runs: 5, MeanTotal: 2}, {Policy: "q", Runs: 5, Failures: 1, MeanTotal: 3}})
	if !hasCheck(&f, "f") || f.Runs != 10 || f.FailedRuns != 1 || f.VirtualTotalS != 22 {
		t.Errorf("check f: %+v", f)
	}

	// (b) nesting and ledger, (d) finite fields, on a real end state.
	run := runEngine(smallConfig(t, "distributed"), nil, nil)
	var clean repResult
	sum := checkEndState(&clean, run.runner)
	if len(clean.Failures) != 0 {
		t.Fatalf("clean end state failed checks: %v", clean.Failures)
	}
	h := run.runner.Hierarchy()
	g := h.Grids(0)[0]
	q := g.Patch.Field(solver.FieldQ)
	at := g.Patch.Grown().Offset(g.Box.Lo)
	saved := q[at]
	q[at] = math.NaN()
	var nan repResult
	checkEndState(&nan, run.runner)
	if !hasCheck(&nan, "d") {
		t.Errorf("check d did not fire on a NaN: %v", nan.Failures)
	}
	q[at] = saved + 1
	var moved repResult
	if checkEndState(&moved, run.runner) == sum {
		t.Error("checksum did not change when a level-0 value changed")
	}
	q[at] = saved
	g.Owner = (g.Owner + 1) % run.runner.System().NumProcs() // behind the ledger's back
	var stale repResult
	checkEndState(&stale, run.runner)
	if !hasCheck(&stale, "b") {
		t.Errorf("check b did not fire on a ledger that missed an owner change: %v", stale.Failures)
	}

	// A child that never reported fails its nominal number of runs.
	var w workloadReport
	w.count(*findWorkload("paper-fig7"), fullSizing, "rep", &rep{Err: "child timed out"})
	if w.OpsAttempted != 20 || w.OpsFailed != 20 {
		t.Errorf("dead paper-fig7 rep: %d/%d ops failed, want 20/20", w.OpsFailed, w.OpsAttempted)
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "run_wall_s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "cell_updates_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, SpreadExempt: true}
	tight := func(med float64) summary {
		return summary{Median: med, Q1: med * 0.99, Q3: med * 1.01, Min: med * 0.98, Max: med * 1.02, N: 5}
	}
	wide := func(med float64) summary {
		return summary{Median: med, Q1: med * 0.9, Q3: med * 1.1, Min: med * 0.85, Max: med * 1.15, N: 5}
	}
	for _, c := range []struct {
		name     string
		m        metricDef
		old, cur summary
		want     string
	}{
		{"within bound", wall, tight(2), tight(2.15), verdictSame},
		{"slower", wall, tight(2), tight(2.3), verdictWorse},
		{"faster", wall, tight(2), tight(1.7), verdictBetter},
		{"rate down", rate, tight(100), tight(85), verdictWorse},
		{"rate up", rate, tight(100), tight(115), verdictBetter},
		{"noisy", wall, wide(2), tight(2.05), verdictUnresolved},
		{"noisy but every run better", wall, wide(2), tight(1.5), verdictBetter},
		{"noisy rate, every run better", rate, wide(100), tight(130), verdictBetter},
		{"setup ignores spread", setup, wide(0.004), wide(0.0045), verdictSame},
		{"setup worse", setup, wide(0.004), wide(0.006), verdictWorse},
	} {
		if got := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressionsAndFailedOps(t *testing.T) {
	mk := func(wall float64, failed int, virtual float64) *results {
		return &results{Workloads: []workloadReport{{
			Name: "shock-data", OpsAttempted: 5, OpsFailed: failed,
			EndToEnd: map[string]summary{
				"run_wall_s":      {Median: wall, Q1: wall, Q3: wall, Min: wall, Max: wall, N: 5},
				"virtual_total_s": {Median: virtual, Q1: virtual, Q3: virtual, Min: virtual, Max: virtual, N: 5},
			},
			PerLayer: map[string]float64{"engine.level_steps": 28},
		}}}
	}
	var sink bytes.Buffer
	if c := compareResults(mk(2, 0, 3), mk(2.1, 0, 3), &sink); len(c.regressions)+len(c.unsettled)+len(c.inexact) != 0 {
		t.Errorf("5%% slower, within the bound: %+v", c)
	}
	if c := compareResults(mk(2, 0, 3), mk(3, 0, 3), &sink); len(c.regressions) != 1 || c.regressions[0] != "shock-data x run_wall_s" {
		t.Errorf("50%% slower: %+v", c)
	}
	if c := compareResults(mk(2, 0, 3), mk(2, 1, 3), &sink); len(c.regressions) != 1 || c.regressions[0] != "shock-data x ops_failed" {
		t.Errorf("a newly failing op: %+v", c)
	}
	if c := compareResults(mk(2, 0, 3), mk(2, 0, 3.0000001), &sink); len(c.inexact) != 1 {
		t.Errorf("virtual_total_s must repeat exactly: %+v", c)
	}
	if !strings.Contains(sink.String(), "verdict") || !strings.Contains(sink.String(), "engine.level_steps") {
		t.Errorf("comparison table lacks the verdict column or the per-layer rows:\n%s", sink.String())
	}
}
