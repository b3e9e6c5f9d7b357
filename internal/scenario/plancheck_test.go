package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/engine"
)

// -plan-scenarios=N turns on the plan-equivalence soak: N generated
// scenarios executed with the -check=plan oracle armed (CI runs 200
// under -race). 0 — the default — keeps ordinary `go test` fast; the
// always-on sweep below still covers a fixed dozen.
var planScenarios = flag.Int("plan-scenarios", 0, "number of generated scenarios for TestPlanEquivalenceSoak (0 = skip)")

func planMsgsEqual(a, b []amr.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runPlanScenario executes one generated scenario as a plan-
// equivalence property trial: the engine runs with CheckPlan armed —
// every cached plan it serves is verified bitwise against the O(n²)
// scan planners, across every regrid, migration, fault and recovery
// the scenario throws at it — plus a per-phase hook that compares the
// indexed scratch GhostPlan against GhostPlanScan for all levels
// (dropLocal filters the built plan, which the amr tests pin). A
// scenario that carries data also runs the data oracle, and runs again
// over tcp ranks, so the oracle checks the wire's fill and restriction
// too. Failures shrink to a minimal replayable reproducer, dropped into
// $SAMR_REPRO_DIR when set.
func runPlanScenario(t *testing.T, sc Scenario) {
	t.Helper()
	sc.Check |= CheckPlan
	// Single leg: resume determinism has its own soak, and the oracle
	// re-arms on recovery anyway.
	sc.ResumeCut = -1
	if !sc.WithData {
		runPlanLeg(t, sc)
		return
	}
	sc.Check |= CheckData
	runPlanLeg(t, sc)
	if tcp := sc; tcp.Transport == "" {
		tcp.Transport = engine.TransportTCP
		if tcp.Validate() == nil {
			runPlanLeg(t, tcp)
		}
	}
}

// runPlanLeg runs sc once under its armed oracles and the plan hook,
// and fails t with the shrunk reproducer if any of them objects.
func runPlanLeg(t *testing.T, sc Scenario) {
	t.Helper()
	hookFail := ""
	hook := func(pi *engine.PhaseInfo) {
		if hookFail != "" || pi.Runner == nil {
			return
		}
		h := pi.Runner.Hierarchy()
		for l := 0; l <= h.MaxLevel; l++ {
			got, want := h.GhostPlan(l, false), h.GhostPlanScan(l)
			if !planMsgsEqual(got, want) {
				hookFail = fmt.Sprintf(
					"step %d level %d: indexed GhostPlan diverged from scan (%d vs %d messages)",
					pi.Step, l, len(got), len(want))
				return
			}
		}
	}
	opt, err := sc.EngineOptions(hook)
	if err != nil {
		t.Fatalf("scenario setup: %v", err)
	}
	panicked := ""
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = fmt.Sprint(p)
			}
		}()
		engine.New(sc.System(), sc.Driver(), opt).Run()
	}()
	if panicked == "" && hookFail == "" {
		return
	}
	shrunk := Shrink(sc, func(c Scenario) bool { return c.ExecuteWithHistory(nil).Failed() }, 0)
	reason := panicked
	if reason == "" {
		reason = hookFail
	}
	msg := fmt.Sprintf("plan equivalence failed: %s\noriginal: %s\nshrunk (%d procs, %d steps): %s\nreplay: %s",
		reason, sc.Encode(), shrunk.NumProcs(), shrunk.Steps, shrunk.Encode(), ReplayCommand(shrunk))
	if dir := os.Getenv("SAMR_REPRO_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		name := filepath.Join(dir, fmt.Sprintf("repro-plan-seed%d.txt", sc.Seed))
		_ = os.WriteFile(name, []byte(ReplayCommand(shrunk)+"\n"), 0o644)
	}
	t.Fatal(msg)
}

// TestPlanEquivalenceSweep is the always-on slice of the property: a
// fixed dozen generated scenarios under the plan oracle.
func TestPlanEquivalenceSweep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runPlanScenario(t, Generate(seed))
		})
	}
}

// TestPlanEquivalenceSoak runs -plan-scenarios=N generated scenarios
// under the plan oracle (the -profile flag selects the generator, as
// for the invariant soak).
func TestPlanEquivalenceSoak(t *testing.T) {
	n := *planScenarios
	if n <= 0 {
		t.Skip("plan soak disabled; run with -plan-scenarios=N")
	}
	for i := 0; i < n; i++ {
		seed := int64(5000 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runPlanScenario(t, soakGenerate(t, seed))
		})
	}
}
