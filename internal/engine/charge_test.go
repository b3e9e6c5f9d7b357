package engine

import (
	"os"
	"testing"

	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

// TestPlanCheckThroughRecovery runs the two fault configurations whose
// restores swap the hierarchy mid-run — the elastic example's bounded
// outages and the golden matrix's fault script — with the plan oracle
// armed. Every processor-pair table served after a restore is then
// re-derived from the restored hierarchy, and the armed run must be the
// unarmed run exactly.
func TestPlanCheckThroughRecovery(t *testing.T) {
	f, err := os.Open("../../cmd/samrsim/testdata/faults.txt")
	if err != nil {
		t.Fatal(err)
	}
	script, err := fault.ParseScript(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	bt := boundaryClocks(t, 8)
	for _, c := range []struct {
		name string
		run  func(checks Checks) *metrics.Result
	}{
		{"elastic", func(checks Checks) *metrics.Result {
			return New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
				Steps: 8, MaxLevel: 1, Faults: rejoinSchedule(t, bt), Checks: checks,
			}).Run()
		}},
		{"faults.txt", func(checks Checks) *metrics.Result {
			sched, err := fault.NewSchedule(9, script...)
			if err != nil {
				t.Fatal(err)
			}
			driver, err := workload.ByName("ShockPool3D", 16, 42)
			if err != nil {
				t.Fatal(err)
			}
			return New(machine.WanPair(4, nil), driver, Options{
				Steps: 4, MaxLevel: 2, Faults: sched, CheckpointInterval: 2, GroupQuorum: 2, Checks: checks,
			}).Run()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			armed, plain := c.run(CheckPlan), c.run(0)
			if armed.Recoveries == 0 {
				t.Fatal("the configuration restored no checkpoint")
			}
			if a, p := armed.Identity(), plain.Identity(); a != p {
				t.Errorf("the plan oracle changed the run:\narmed   %s\nunarmed %s", a, p)
			}
		})
	}
}

// chargeRun is an AMR64 run at 32³ on 2×4 processors, for charging its
// finest level.
func chargeRun(tb testing.TB) *Runner {
	r := New(machine.WanPair(4, nil), workload.NewAMR64(32, 2, 1), Options{Steps: 2, MaxLevel: 2})
	r.Run()
	if len(r.h.GhostTransfers(2)) == 0 {
		tb.Fatal("level 2 has no ghost traffic between processors")
	}
	return r
}

// TestChargeOnUnchangedLevelAllocatesNothing pins the point of the
// cached table: charging a level whose structure and owners have not
// changed since its last charge only reads.
func TestChargeOnUnchangedLevelAllocatesNothing(t *testing.T) {
	r := chargeRun(t)
	charge := func() {
		r.chargeTransfers(r.h.GhostTransfers(2), vclock.LocalComm, vclock.RemoteComm)
		r.chargeTransfers(r.h.RestrictTransfers(2), vclock.LocalComm, vclock.RemoteComm)
	}
	charge()
	if n := testing.AllocsPerRun(20, charge); n != 0 {
		t.Fatalf("charging an unchanged level allocated %.0f times; want 0", n)
	}
}

// BenchmarkChargeTransfers measures charging the finest level's ghost
// traffic of an AMR64 run: "hit" from the cached table, "miss" after an
// owner change on the level, which rebuilds the table.
func BenchmarkChargeTransfers(b *testing.B) {
	r := chargeRun(b)
	g := r.h.Grids(2)[0]
	owners := [2]int{g.Owner, (g.Owner + 1) % r.sys.NumProcs()}
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if miss {
					r.h.SetOwner(g, owners[i%2])
				}
				r.chargeTransfers(r.h.GhostTransfers(2), vclock.LocalComm, vclock.RemoteComm)
			}
		})
	}
}
