package exp

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"samrdlb/internal/dlb"
	"samrdlb/internal/golden"
)

// TestTournamentIsBenchPolicy pins the policy ablation: the default
// envelope set (20 from seed 40000) covers every registered policy with
// zero failures, its artifact parses back into the same Tournament, and
// it is the committed BENCH_policy.json byte for byte, at the default
// GOMAXPROCS and at one. `go test ./internal/exp -run
// TestTournamentIsBenchPolicy -update` rewrites the file.
func TestTournamentIsBenchPolicy(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		tour, err := RunTournament(TournamentOptions{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(tour.Scores) != len(dlb.PolicyNames()) {
			t.Fatalf("GOMAXPROCS %d: scores for %d policies, want %d", procs, len(tour.Scores), len(dlb.PolicyNames()))
		}
		seen := map[string]bool{}
		for i, s := range tour.Scores {
			seen[s.Policy] = true
			if s.Runs != tour.Scenarios || s.Failures != 0 {
				t.Errorf("GOMAXPROCS %d: %s: %d runs, %d failures; want %d and none", procs, s.Policy, s.Runs, s.Failures, tour.Scenarios)
			}
			if s.MeanTotal <= 0 || s.MeanImbalance < 1 {
				t.Errorf("GOMAXPROCS %d: %s: implausible score %+v", procs, s.Policy, s)
			}
			if i > 0 && s.MeanTotal < tour.Scores[i-1].MeanTotal {
				t.Errorf("GOMAXPROCS %d: scores not ranked: %s before %s", procs, tour.Scores[i-1].Policy, s.Policy)
			}
		}
		for _, name := range dlb.PolicyNames() {
			if !seen[name] {
				t.Errorf("GOMAXPROCS %d: policy %s missing from the tournament", procs, name)
			}
		}

		out, err := tour.BenchJSON()
		if err != nil {
			t.Fatal(err)
		}
		// WallSeconds is left out of the artifact, so the round trip is
		// exact once it is zeroed.
		var rt Tournament
		if err := json.Unmarshal(out, &rt); err != nil {
			t.Fatalf("GOMAXPROCS %d: BenchJSON does not parse: %v", procs, err)
		}
		for i := range tour.Scores {
			tour.Scores[i].WallSeconds = 0
		}
		if !reflect.DeepEqual(rt, *tour) {
			t.Errorf("GOMAXPROCS %d: JSON round trip mismatch:\n%+v\n%+v", procs, rt, *tour)
		}
		golden.Check(t, "../../BENCH_policy.json", string(out))
	}
}
