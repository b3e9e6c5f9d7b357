package engine

import (
	"math"
	"reflect"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/machine"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// refluxRun runs the refluxing configuration the tests below share:
// three levels of ShockPool3D on a two-group WAN, which regrids every
// step, migrates fine grids in the local phase and splits level-0
// grids in the global phase.
func refluxRun(t *testing.T, tweak func(*Options)) (*Runner, int) {
	t.Helper()
	opt := Options{Steps: 8, MaxLevel: 2, WithData: true, Reflux: true}
	if tweak != nil {
		tweak(&opt)
	}
	r := New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), opt)
	return r, len(r.Hierarchy().Grids(0))
}

// assertSameFields requires two hierarchies to hold the same grids with
// bit-identical field data.
func assertSameFields(t *testing.T, got, want *amr.Hierarchy) {
	t.Helper()
	for l := 0; l <= want.MaxLevel; l++ {
		gs, ws := got.Grids(l), want.Grids(l)
		if len(gs) != len(ws) {
			t.Fatalf("level %d: %d grids, want %d", l, len(gs), len(ws))
		}
		for i, w := range ws {
			g := gs[i]
			if g.Box != w.Box {
				t.Fatalf("level %d grid %d: box %v, want %v", l, i, g.Box, w.Box)
			}
			for _, f := range want.Fields {
				gf, wf := g.Patch.Field(f), w.Patch.Field(f)
				for k := range wf {
					if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) {
						t.Fatalf("level %d grid %d field %q cell %d: %v, want %v", l, i, f, k, gf[k], wf[k])
					}
				}
			}
		}
	}
}

// TestRefluxPlanCheckThroughStructureChanges arms the plan oracle on a
// refluxing run: every interface plan a register is built from —
// after regrids, after owner-only local migrations (which must leave
// it cached) and after the global phase's SplitGrid — is compared with
// a from-scratch whole-level build, and a divergence panics.
func TestRefluxPlanCheckThroughStructureChanges(t *testing.T) {
	r, grids0 := refluxRun(t, func(o *Options) { o.PlanCheck = true })
	res := r.Run()
	if res.Steps != 8 {
		t.Fatalf("run did not complete: %d steps", res.Steps)
	}
	if res.LocalMigrations == 0 || res.GlobalRedists == 0 {
		t.Errorf("configuration lost its churn: %d local migrations, %d global redistributions",
			res.LocalMigrations, res.GlobalRedists)
	}
	if n := len(r.Hierarchy().Grids(0)); n <= grids0 {
		t.Errorf("no level-0 grid was split by the global phase (%d grids before, %d after)", grids0, n)
	}
}

// TestRefluxPoolFeedMatchesSequential runs the refluxing configuration
// without a pool and over four workers. The pool tasks feed the flux
// registers concurrently, each writing only its own grid's planned
// faces, so the result and every field bit must match the sequential
// run (and `go test -race` watches the concurrent feed).
func TestRefluxPoolFeedMatchesSequential(t *testing.T) {
	seq, _ := refluxRun(t, nil)
	want := seq.Run()
	par, _ := refluxRun(t, func(o *Options) { o.Pool = solver.NewPool(4) })
	got := par.Run()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pooled result differs\n got: %+v\nwant: %+v", got, want)
	}
	assertSameFields(t, par.Hierarchy(), seq.Hierarchy())
}
