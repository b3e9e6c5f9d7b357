package scenario

import (
	"reflect"
	"testing"

	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
)

// FuzzScenario feeds arbitrary bytes through FromBytes into the
// executor: whatever configuration the fuzzer reaches, the engine
// must neither panic nor violate a paper invariant. The same bytes are
// also read as a typed spec (checkTypedSpec). CI runs this for a short
// smoke window; `go test -fuzz=FuzzScenario ./internal/scenario` runs
// it open-ended.
func FuzzScenario(f *testing.F) {
	// Typed specs: every table key, the testbed and the groups form.
	f.Add([]byte("seed=7 dataset=AMR64 n=8 maxlevel=1 policy=paper system=lan procs=3 steps=2 gamma=1.5 eps=0.1 regrid=2 gpp=2 data=1 forecast=1 ckpt=1 quorum=1 faultseed=3 faults=proc-fail:proc=1:at=0.1:end=0.4/worker-kill:group=1:at=1 transport=tcp check=ledger,plan"))
	f.Add([]byte("groups=2x1,1x0.5 wan=1 traffic=9 n=8 steps=3 cut=1 ckpt=1 bug=colocation check=invariants"))
	f.Add([]byte("system=origin procs=1 n=1 maxlevel=0 steps=1 dataset=uniform"))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 3, 7, 11, 42})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// Fail → rejoin → fail-again on one processor (byte 25 hits the
	// churn-injection case of FromBytes).
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 25})
	// Chaos kill point (byte 26 hits the worker-kill injection case).
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 26})
	// Policy overrides under the churn schedule: byte 13 selects
	// diffusion, byte 69 knapsack (quotient indexes the sorted
	// registry), so the fuzzer starts from non-paper policies exercised
	// through faults and rejoins.
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 25, 13})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 25, 69})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := FromBytes(data)
		if out := sc.ExecuteWithHistory(nil); out.Failed() {
			t.Fatalf("%s\nreplay: %s", out.Summary(), ReplayCommand(sc))
		}
		checkTypedSpec(t, string(data))
	})
}

// checkTypedSpec holds the front door to its contract for whatever a
// human might type: a spec Parse accepts survives Encode → Parse, and
// one Validate also accepts builds its system, driver, options and
// engine without a panic (sizes capped so the fuzzer stays fast).
func checkTypedSpec(t *testing.T, in string) {
	sc, err := Parse(in)
	if err != nil {
		return
	}
	enc := sc.Encode()
	back, err := Parse(enc)
	if err != nil || back.Encode() != enc {
		t.Fatalf("Parse(%q) encodes as %q, which parses as %q (%v)", in, enc, back.Encode(), err)
	}
	if sc.Validate() != nil {
		return
	}
	if !reflect.DeepEqual(back, sc) { // Validate admits no NaN, so DeepEqual is exact
		t.Fatalf("round trip of %q:\n in: %+v\nout: %+v", enc, sc, back)
	}
	procs := sc.TestbedN * 2
	for _, g := range sc.Groups {
		procs += g.Procs
	}
	if sc.DomainN > 12 || sc.MaxLevel > 2 || sc.GridsPerProc > 8 || procs > 16 || len(sc.Groups) > 4 {
		return
	}
	opt, err := sc.EngineOptions(nil)
	if err != nil {
		t.Fatalf("Validate accepted %q, EngineOptions did not: %v", enc, err)
	}
	engine.New(sc.System(), sc.Driver(), opt).Close()
}

// TestValidateAcceptsGenerated: Validate is at least as permissive as
// the generator's envelope, so every repro line the harness prints is a
// spec samrsim will run.
func TestValidateAcceptsGenerated(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, sc := range []Scenario{Generate(seed), GenerateRejoin(seed)} {
			if err := sc.Validate(); err != nil {
				t.Errorf("seed %d: %v (%s)", seed, err, sc.Encode())
			}
		}
	}
}

// TestFuzzCorpusChurnSeed pins the corpus entry that exercises the
// fail → rejoin → fail-again schedule: both bounded outages must
// survive normalisation (so the entry really stresses re-admission)
// and the scenario must execute with zero invariant violations.
func TestFuzzCorpusChurnSeed(t *testing.T) {
	sc := FromBytes([]byte{5, 0, 0, 0, 0, 0, 0, 0, 25})
	bounded := 0
	for _, e := range sc.Faults {
		if e.Kind == fault.ProcFailure && e.End > e.Start {
			bounded++
		}
	}
	if bounded != 2 {
		t.Fatalf("churn corpus entry lost its schedule after Normalize: %+v", sc.Faults)
	}
	if out := sc.ExecuteWithHistory(nil); out.Failed() {
		failNow(t, sc, out)
	}
}

// TestFuzzCorpusPolicyBytes pins the policy-override corpus entries:
// the policy byte must actually select the intended non-paper policy
// (through the sorted registry), the churn schedule must survive
// alongside it, and the combination must execute clean under the
// policy-scoped oracle.
func TestFuzzCorpusPolicyBytes(t *testing.T) {
	cases := []struct {
		b      byte
		scheme string
	}{
		{13, "diffusion"},
		{69, "knapsack"},
	}
	for _, c := range cases {
		sc := FromBytes([]byte{5, 0, 0, 0, 0, 0, 0, 0, 25, c.b})
		if sc.Scheme != c.scheme {
			t.Fatalf("policy byte %d selected %q, want %q", c.b, sc.Scheme, c.scheme)
		}
		bounded := 0
		for _, e := range sc.Faults {
			if e.Kind == fault.ProcFailure && e.End > e.Start {
				bounded++
			}
		}
		if bounded != 2 {
			t.Fatalf("%s: churn schedule lost after Normalize: %+v", c.scheme, sc.Faults)
		}
		if out := sc.ExecuteWithHistory(nil); out.Failed() {
			failNow(t, sc, out)
		}
	}
}

// TestFuzzCorpusWorkerKillSeed pins the worker-kill corpus entry: the
// injected kill point must survive normalisation and the key=value
// round-trip (a supervised replay needs the exact schedule), while the
// in-process executor must treat it as inert.
func TestFuzzCorpusWorkerKillSeed(t *testing.T) {
	sc := FromBytes([]byte{5, 0, 0, 0, 0, 0, 0, 0, 26})
	kills := 0
	for _, e := range sc.Faults {
		if e.Kind == fault.WorkerKill {
			kills++
		}
	}
	if kills == 0 {
		t.Fatalf("worker-kill corpus entry lost its kill point after Normalize: %+v", sc.Faults)
	}
	rt, err := Parse(sc.Encode())
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	rtKills := 0
	for _, e := range rt.Faults {
		if e.Kind == fault.WorkerKill {
			rtKills++
		}
	}
	if rtKills != kills {
		t.Fatalf("kill points lost in encode/parse round-trip: %d -> %d", kills, rtKills)
	}
	if out := sc.ExecuteWithHistory(nil); out.Failed() {
		failNow(t, sc, out)
	}
}
