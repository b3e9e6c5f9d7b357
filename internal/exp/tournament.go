package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"samrdlb/internal/dlb"
	"samrdlb/internal/metrics"
	"samrdlb/internal/scenario"
	"samrdlb/internal/solver"
	"samrdlb/internal/vclock"
)

// TournamentOptions configures a policy ablation tournament: every
// registered balancer policy runs the exact same seeded scenario
// envelopes (systems, workloads, fault schedules, resume cuts), so the
// score differences isolate the policy.
type TournamentOptions struct {
	// Scenarios is the number of generated envelopes (default 20).
	Scenarios int
	// Seed0 is the first generator seed; envelopes use Seed0,
	// Seed0+1, ... (default 40000, clear of the soak ranges).
	Seed0 int64
	// Policies lists the competitors (default: every registered
	// policy). Names may be registry aliases.
	Policies []string
}

func (o *TournamentOptions) setDefaults() error {
	if o.Scenarios <= 0 {
		o.Scenarios = 20
	}
	if o.Seed0 == 0 {
		o.Seed0 = 40000
	}
	if len(o.Policies) == 0 {
		o.Policies = dlb.PolicyNames()
	}
	for i, p := range o.Policies {
		canon, ok := dlb.CanonicalPolicy(p)
		if !ok {
			return fmt.Errorf("tournament: unknown policy %q", p)
		}
		o.Policies[i] = canon
	}
	return nil
}

// PolicyScore aggregates one policy's results over the whole envelope
// set. All fields except WallSeconds are deterministic functions of
// the seeds, so they are stable across machines and runs; WallSeconds
// is real elapsed time and is excluded from BenchJSON.
type PolicyScore struct {
	Policy string `json:"policy"`
	// Runs counts completed envelopes; Failures counts envelopes that
	// panicked, errored or violated a scoped invariant (their metrics
	// are not aggregated).
	Runs     int `json:"runs"`
	Failures int `json:"failures"`
	// MeanTotal is the mean virtual execution time (seconds) — the
	// headline ranking metric.
	MeanTotal float64 `json:"mean_total_s"`
	// MeanImbalance is the mean of the engine's per-step
	// imbalance-ratio series across all envelopes (1.0 = perfectly
	// balanced).
	MeanImbalance float64 `json:"mean_imbalance"`
	// Migrations sums local migrations and global redistributions.
	LocalMigrations int `json:"local_migrations"`
	GlobalRedists   int `json:"global_redists"`
	// MeanDeltaCost is the mean per-envelope δ-charged balancing cost:
	// critical-path redistribution plus DLB-overhead time (seconds).
	MeanDeltaCost float64 `json:"mean_delta_cost_s"`
	// WallSeconds is the sum of the real time each of the policy's
	// envelope runs took: busy time, not elapsed time, since policies'
	// runs interleave on the solver pool (advisory; not part of the JSON
	// artifact).
	WallSeconds float64 `json:"-"`
}

// Tournament is the outcome of RunTournament.
type Tournament struct {
	Scenarios int           `json:"scenarios"`
	Seed0     int64         `json:"seed0"`
	Scores    []PolicyScore `json:"scores"`
}

// RunTournament executes the ablation: Scenarios envelopes × Policies,
// every run under the policy-scoped invariant oracle, scoring virtual
// time, imbalance, migration volume and δ-charged cost. Scores are
// sorted by MeanTotal ascending (winner first, name-tiebroken).
func RunTournament(o TournamentOptions) (*Tournament, error) {
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	// One slot per (policy, envelope), policy-major. The runs share
	// nothing, so they go on the solver pool; the scores below fold the
	// slots in (policy, seed) order, so every sum is the serial one.
	type slot struct {
		out       scenario.Outcome
		imbalance float64
		wall      float64
	}
	slots := make([]slot, len(o.Policies)*o.Scenarios)
	solver.NewPool(0).ForEach(len(slots), func(k int) {
		start := time.Now()
		// Regenerate per policy: the envelope is a pure function of the
		// seed, so every policy faces identical conditions.
		s := scenario.Generate(o.Seed0 + int64(k%o.Scenarios))
		s.Scheme = o.Policies[k/o.Scenarios]
		s.Normalize()
		hist := metrics.NewHistory()
		slots[k].out = s.ExecuteWithHistory(hist)
		slots[k].imbalance = metrics.Mean(hist.Get("imbalance-ratio"))
		slots[k].wall = time.Since(start).Seconds()
	})
	t := &Tournament{Scenarios: o.Scenarios, Seed0: o.Seed0}
	for p, policy := range o.Policies {
		sc := PolicyScore{Policy: policy}
		var totalSum, imbSum, costSum float64
		scored := 0
		for _, sl := range slots[p*o.Scenarios : (p+1)*o.Scenarios] {
			sc.Runs++
			sc.WallSeconds += sl.wall
			if sl.out.Failed() {
				sc.Failures++
				continue
			}
			r := sl.out.Result
			totalSum += r.Total
			imbSum += sl.imbalance
			costSum += r.Breakdown[vclock.Redistribution] + r.Breakdown[vclock.DLBOverhead]
			sc.LocalMigrations += r.LocalMigrations
			sc.GlobalRedists += r.GlobalRedists
			scored++
		}
		if scored > 0 {
			sc.MeanTotal = totalSum / float64(scored)
			sc.MeanImbalance = imbSum / float64(scored)
			sc.MeanDeltaCost = costSum / float64(scored)
		}
		t.Scores = append(t.Scores, sc)
	}
	sort.SliceStable(t.Scores, func(i, j int) bool {
		a, b := t.Scores[i], t.Scores[j]
		if a.MeanTotal != b.MeanTotal {
			return a.MeanTotal < b.MeanTotal
		}
		return a.Policy < b.Policy
	})
	return t, nil
}

// Markdown renders the comparison report: one ranked table plus the
// envelope provenance, ready for a PR comment or EXPERIMENTS.md.
func (t *Tournament) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Policy tournament\n\n")
	fmt.Fprintf(&b, "%d seeded scenario envelopes (seeds %d..%d), every policy on identical systems, workloads and fault schedules, under the policy-scoped invariant oracle. Ranked by mean virtual execution time.\n\n",
		t.Scenarios, t.Seed0, t.Seed0+int64(t.Scenarios)-1)
	b.WriteString("| rank | policy | mean total (s) | mean imbalance | local migs | global redists | δ-cost (s) | failures | wall (s) |\n")
	b.WriteString("|-----:|--------|---------------:|---------------:|-----------:|---------------:|-----------:|---------:|---------:|\n")
	for i, s := range t.Scores {
		fmt.Fprintf(&b, "| %d | %s | %.3f | %.4f | %d | %d | %.3f | %d | %.2f |\n",
			i+1, s.Policy, s.MeanTotal, s.MeanImbalance,
			s.LocalMigrations, s.GlobalRedists, s.MeanDeltaCost, s.Failures, s.WallSeconds)
	}
	return b.String()
}

// BenchJSON renders the deterministic benchmark artifact
// (BENCH_policy.json): per-policy metrics that are pure functions of
// the seed set — wall time excluded, so the file is identical across
// machines and reruns.
func (t *Tournament) BenchJSON() ([]byte, error) {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
