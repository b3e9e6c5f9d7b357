package engine

import (
	"reflect"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// poolWidths are the widths the pin compares. They are explicit, not
// NewPool(0), so the chunked plan builds and the chunked particle push
// run on a one-core machine too.
var poolWidths = []int{1, 2, 4}

// widthRun is what the pin compares between two pool widths.
type widthRun struct {
	identity string
	ghost    [][]amr.Message
	boxes    []geom.BoxList
}

func runAtWidth(t *testing.T, w int, build func(pool *solver.Pool) *Runner) widthRun {
	t.Helper()
	r := build(solver.NewPool(w))
	res := r.Run()
	h := r.Hierarchy()
	out := widthRun{identity: res.Identity()}
	for l := 0; l < h.NumLevels(); l++ {
		out.ghost = append(out.ghost, h.GhostPlanCached(l))
		out.boxes = append(out.boxes, h.Boxes(l))
	}
	return out
}

// TestPoolWidthPin: the pool's width changes nothing. The ghost and
// fill plan builds and AMR64's particle push are split over the pool in
// contiguous chunks and folded back in serial order, so a run at one,
// two and four workers has the same Result, the same ghost plan on
// every level and the same box lists. The AMR64 run is plan-only with
// 512 level-0 grids, which four workers plan in four chunks, and 2048
// particles, pushed in four chunks. The ShockPool3D run carries field
// data under -check=plan,data, which compares every fill plan it
// serves with the serial scan planner's and every fill with the scan
// fill's.
func TestPoolWidthPin(t *testing.T) {
	cases := []struct {
		name  string
		build func(pool *solver.Pool) *Runner
	}{
		{"AMR64-particles", func(pool *solver.Pool) *Runner {
			return New(machine.LanPair(4, nil), workload.NewAMR64(32, 2, 42), Options{
				Steps: 8, MaxLevel: 2, GridsPerProc: 64, RegridInterval: 4, Pool: pool,
			})
		}},
		{"ShockPool3D-data", func(pool *solver.Pool) *Runner {
			return New(machine.WanPair(2, nil), workload.NewShockPool3D(24, 2), Options{
				Steps: 4, MaxLevel: 2, GridsPerProc: 64, WithData: true,
				PlanCheck: true, DataCheck: true, Pool: pool,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runAtWidth(t, poolWidths[0], tc.build)
			if n := len(want.boxes[0]); n < 4*64 {
				t.Fatalf("level 0 holds %d grids, too few for four plan chunks", n)
			}
			for _, w := range poolWidths[1:] {
				got := runAtWidth(t, w, tc.build)
				if got.identity != want.identity {
					t.Errorf("%d workers: Result differs from one worker's:\n got %s\nwant %s", w, got.identity, want.identity)
				}
				if !reflect.DeepEqual(got.boxes, want.boxes) {
					t.Errorf("%d workers: box lists differ from one worker's", w)
				}
				if !reflect.DeepEqual(got.ghost, want.ghost) {
					t.Errorf("%d workers: ghost plans differ from one worker's", w)
				}
			}
		})
	}
}
