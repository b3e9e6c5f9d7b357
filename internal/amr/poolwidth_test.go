package amr

import (
	"reflect"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/solver"
)

// fillOpID is a fillOp with its source named by ID, so fill plans of
// two hierarchies built alike compare equal.
type fillOpID struct {
	src     GridID
	region  geom.Box
	prolong bool
}

type fillDestID struct {
	g      GridID
	ops    []fillOpID
	clamps geom.BoxList
}

func fillPlanIDs(plan []fillDest) []fillDestID {
	out := make([]fillDestID, len(plan))
	for i, d := range plan {
		out[i] = fillDestID{g: d.g.ID, clamps: d.clamps}
		for _, op := range d.ops {
			out[i].ops = append(out[i].ops, fillOpID{op.src.ID, op.region(), op.prolong})
		}
	}
	return out
}

// TestPoolWidthPin: the ghost and fill plans a hierarchy builds on a
// pool of one, two or four workers are the same, level by level. Level
// 0 holds 256 grids, which four workers plan in four chunks; the
// regrid's fine levels hold more.
func TestPoolWidthPin(t *testing.T) {
	type plans struct {
		boxes []geom.BoxList
		ghost [][]Message
		local [][]Message
		fill  [][]fillDestID
	}
	build := func(workers int) plans {
		h := New(geom.UnitCube(32), 2, 2, 1, false, "q")
		h.SetPool(solver.NewPool(workers))
		for i, b := range (geom.BoxList{h.Domain}).SplitEvenly(256) {
			h.AddGrid(0, b, i%8, NoGrid)
		}
		h.RegridAll(0, func(level int, f *cluster.FlagField) {
			setWhere(f, func(i geom.Index) bool { return (i[0]/5+i[1]/5+i[2]/5)%4 == 0 })
		}, DefaultRegridParams(), nil)
		var p plans
		for l := 0; l <= h.MaxLevel; l++ {
			p.boxes = append(p.boxes, h.Boxes(l))
			p.ghost = append(p.ghost, h.GhostPlanCached(l))
			p.local = append(p.local, h.GhostPlan(l, true))
			p.fill = append(p.fill, fillPlanIDs(h.fillPlan(l)))
		}
		return p
	}
	want := build(1)
	for l, b := range want.boxes {
		if len(b) < 4*planChunk {
			t.Fatalf("level %d holds %d grids, too few for four plan chunks", l, len(b))
		}
	}
	for _, w := range []int{2, 4} {
		got := build(w)
		for l := range want.boxes {
			if !reflect.DeepEqual(got.boxes[l], want.boxes[l]) {
				t.Errorf("%d workers, level %d: box lists differ from one worker's", w, l)
			}
			if !reflect.DeepEqual(got.ghost[l], want.ghost[l]) || !reflect.DeepEqual(got.local[l], want.local[l]) {
				t.Errorf("%d workers, level %d: ghost plans differ from one worker's", w, l)
			}
			if !reflect.DeepEqual(got.fill[l], want.fill[l]) {
				t.Errorf("%d workers, level %d: fill plans differ from one worker's", w, l)
			}
		}
	}
}
