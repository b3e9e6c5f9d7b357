package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// -scenarios=N turns on the soak sweep: N generated scenarios executed
// under the invariant oracle (CI runs 200 under -race). 0 — the
// default — keeps ordinary `go test` fast; the always-on sweep below
// still covers a fixed dozen.
var soakScenarios = flag.Int("scenarios", 0, "number of generated scenarios for TestInvariantSoak (0 = skip)")

// -profile selects the soak generator: "" / "default" uses Generate,
// "rejoin" uses GenerateRejoin (fault schedules weighted toward
// processor rejoin and group reconnect churn). CI runs both.
var soakProfile = flag.String("profile", "", "soak generator profile: default or rejoin")

// Summary renders a short human-readable account of a failure.
func (o Outcome) Summary() string {
	switch {
	case o.Panic != "":
		return "panic: " + o.Panic
	case o.Err != "":
		return "error: " + o.Err
	case len(o.Violations) > 0:
		var b strings.Builder
		fmt.Fprintf(&b, "%d violation(s):", len(o.Violations))
		for _, v := range o.Violations {
			b.WriteString("\n  " + v.String())
		}
		return b.String()
	default:
		return "ok"
	}
}

// soakGenerate maps the -profile flag onto a generator.
func soakGenerate(t *testing.T, seed int64) Scenario {
	switch *soakProfile {
	case "", "default":
		return Generate(seed)
	case "rejoin":
		return GenerateRejoin(seed)
	default:
		t.Fatalf("unknown -profile %q", *soakProfile)
		return Scenario{}
	}
}

// failNow reports a failing outcome with its shrunk reproducer and
// replayable command line, and drops the repro into $SAMR_REPRO_DIR
// when set (CI uploads that directory as an artifact).
func failNow(t *testing.T, sc Scenario, out Outcome) {
	t.Helper()
	shrunk := Shrink(sc, func(c Scenario) bool { return c.ExecuteWithHistory(nil).Failed() }, 0)
	sout := shrunk.ExecuteWithHistory(nil)
	msg := fmt.Sprintf("scenario failed: %s\noriginal: %s\nshrunk (%d procs, %d steps): %s\nreplay: %s",
		out.Summary(), sc.Encode(), shrunk.NumProcs(), shrunk.Steps, sout.Summary(), ReplayCommand(shrunk))
	if dir := os.Getenv("SAMR_REPRO_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		name := filepath.Join(dir, fmt.Sprintf("repro-seed%d.txt", sc.Seed))
		_ = os.WriteFile(name, []byte(ReplayCommand(shrunk)+"\n"), 0o644)
	}
	t.Fatal(msg)
}

// TestInvariantSweep is the always-on property sweep: a fixed dozen
// generated scenarios (faults, WAN links, resume cuts, both schemes)
// must hold every paper invariant.
func TestInvariantSweep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			if out := sc.ExecuteWithHistory(nil); out.Failed() {
				failNow(t, sc, out)
			}
		})
	}
}

// TestInvariantSoak runs -scenarios=N generated scenarios; failures
// shrink to a minimal replayable reproducer.
func TestInvariantSoak(t *testing.T) {
	n := *soakScenarios
	if n <= 0 {
		t.Skip("soak disabled; run with -scenarios=N")
	}
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := soakGenerate(t, seed)
			if out := sc.ExecuteWithHistory(nil); out.Failed() {
				failNow(t, sc, out)
			}
		})
	}
}

// TestGenerateDeterministic pins the generator's contract: the same
// seed yields the same scenario, and the scenario is already
// normalised.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic:\n%+v\n%+v", seed, a, b)
		}
		n := a
		n.Normalize()
		if !reflect.DeepEqual(a, n) {
			t.Fatalf("seed %d: Generate output not normalised:\n%+v\n%+v", seed, a, n)
		}

		ra, rb := GenerateRejoin(seed), GenerateRejoin(seed)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("seed %d: GenerateRejoin not deterministic:\n%+v\n%+v", seed, ra, rb)
		}
		rn := ra
		rn.Normalize()
		if !reflect.DeepEqual(ra, rn) {
			t.Fatalf("seed %d: GenerateRejoin output not normalised:\n%+v\n%+v", seed, ra, rn)
		}
	}
}

// TestRejoinProfileSweep is the always-on slice of the rejoin-heavy
// profile: a handful of churn-weighted scenarios must hold every
// invariant even without the -profile=rejoin soak.
func TestRejoinProfileSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := GenerateRejoin(seed)
			if out := sc.ExecuteWithHistory(nil); out.Failed() {
				failNow(t, sc, out)
			}
		})
	}
}

// TestScenarioEncodeParseRoundTrip pins the replay format: every
// generated scenario survives Encode → Parse bit-exactly (floats use
// %g, which round-trips float64).
func TestScenarioEncodeParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		sc := Generate(seed)
		sc.InjectBug = ""
		if seed%7 == 0 {
			sc.InjectBug = "colocation"
		}
		parsed, err := Parse(sc.Encode())
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, sc.Encode(), err)
		}
		if !reflect.DeepEqual(parsed, sc) {
			t.Fatalf("seed %d: round trip mismatch:\n in: %+v\nout: %+v", seed, sc, parsed)
		}
	}
}

func TestParseRejectsUnknownKey(t *testing.T) {
	if _, err := Parse("seed=1 bogus=2"); err == nil {
		t.Fatal("Parse accepted an unknown key")
	}
	if _, err := Parse("notatoken"); err == nil {
		t.Fatal("Parse accepted a key with no value")
	}
	// A misspelt value would be normalised into the default scenario.
	for _, in := range []string{"seed=1 policy=knapsak", "seed=1 system=wlan", "seed=1 check=plans", "seed=1 transport=udp", "seed=1 dataset=ShockPool"} {
		if _, err := Parse(in); err == nil {
			t.Fatalf("Parse(%q) accepted an unknown name", in)
		}
	}
}

// TestScenarioDeterminism asserts the executor's core property: the
// same scenario executed twice produces identical Results — including
// runs with faults and resume cuts. Shrinking and replay depend on
// this.
func TestScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{2, 5, 9, 1004, 1013} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			a, b := sc.ExecuteWithHistory(nil), sc.ExecuteWithHistory(nil)
			if a.Failed() || b.Failed() {
				t.Fatalf("scenario failed: %s / %s", a.Summary(), b.Summary())
			}
			if !reflect.DeepEqual(a.Result, b.Result) {
				t.Fatalf("same scenario, different Results:\n%+v\n%+v", a.Result, b.Result)
			}
		})
	}
}

// TestNormalizeEnvelope spot-checks the clamping rules that keep
// scenarios runnable.
func TestNormalizeEnvelope(t *testing.T) {
	s := Scenario{DomainN: 1000, Steps: 99, MaxLevel: 7, ResumeCut: 50, CkptInterval: 9}
	s.Normalize()
	if s.DomainN != 16 || s.Steps != 10 || s.MaxLevel != 2 {
		t.Fatalf("clamps wrong: %+v", s)
	}
	if s.ResumeCut != -1 {
		t.Fatalf("cut beyond the run should drop, got %d", s.ResumeCut)
	}

	// A cut with no completed checkpoint before it must move or vanish.
	s2 := Scenario{Steps: 2, CkptInterval: 3, ResumeCut: 1}
	s2.Normalize()
	if s2.ResumeCut != -1 {
		t.Fatalf("unreachable cut survived: %+v", s2)
	}

	// Forecast + resume is excluded (forecast history restarts empty).
	s3 := Scenario{Steps: 6, CkptInterval: 1, ResumeCut: 2, UseForecast: true}
	s3.Normalize()
	if s3.UseForecast {
		t.Fatal("UseForecast survived a resume cut")
	}
}

// TestUnknownSchemeNeverRunsAnotherPolicy: a scheme name that slipped
// past Normalize fails the run, as an unknown dataset does — it used to
// replay the distributed scheme silently.
func TestUnknownSchemeNeverRunsAnotherPolicy(t *testing.T) {
	s := Generate(1)
	s.Scheme = "knapsak"
	out := s.ExecuteWithHistory(nil)
	if out.Result != nil || !strings.Contains(out.Panic, "knapsak") {
		t.Fatalf("unknown scheme must fail the run naming it; got result %v, panic %q", out.Result, out.Panic)
	}
	s.Normalize()
	if s.Scheme != "distributed" {
		t.Fatalf("Normalize left scheme %q", s.Scheme)
	}
}

// TestShrinkerMinimizesColocationBug seeds a deliberate co-location
// defect (children placed outside the parent's group) into a large
// scenario and requires the shrinker to find it and reduce the
// reproducer to at most 8 processors and 5 level-0 steps.
func TestShrinkerMinimizesColocationBug(t *testing.T) {
	sc := Scenario{
		Seed:    42,
		Dataset: "ShockPool3D", DomainN: 16, MaxLevel: 2,
		Scheme: "distributed",
		Groups: []GroupDef{{Procs: 4, Perf: 1}, {Procs: 4, Perf: 0.5}, {Procs: 4, Perf: 1}},
		Steps:  8, RegridInterval: 2, GridsPerProc: 2,
		CkptInterval: 2, ResumeCut: -1,
		InjectBug: "colocation",
	}
	sc.Normalize()

	hasColocation := func(c Scenario) bool {
		out := c.ExecuteWithHistory(nil)
		for _, v := range out.Violations {
			if v.Rule == "co-location" {
				return true
			}
		}
		return false
	}
	if !hasColocation(sc) {
		t.Fatal("injected co-location bug was not caught by the oracle")
	}
	shrunk := Shrink(sc, hasColocation, 0)
	if !hasColocation(shrunk) {
		t.Fatalf("shrunk scenario no longer reproduces: %s", shrunk.Encode())
	}
	if shrunk.InjectBug != "colocation" || shrunk.Seed != sc.Seed {
		t.Fatalf("shrinker dropped identity fields: %+v", shrunk)
	}
	if p := shrunk.NumProcs(); p > 8 || shrunk.Steps > 5 {
		t.Fatalf("shrunk reproducer too large: %d procs, %d steps (%s)", p, shrunk.Steps, shrunk.Encode())
	}
	// The printed command line must replay the same defect.
	parsed, err := Parse(shrunk.Encode())
	if err != nil {
		t.Fatalf("replay string does not parse: %v", err)
	}
	if !hasColocation(parsed) {
		t.Fatalf("replayed scenario does not reproduce: %s", ReplayCommand(shrunk))
	}
	t.Logf("shrunk repro: %s", ReplayCommand(shrunk))
}
