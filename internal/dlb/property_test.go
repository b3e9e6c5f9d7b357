package dlb

import (
	"math/rand"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
)

// Property tests: for randomized hierarchies and loads, the balancers
// must preserve the grid population, respect group boundaries (the
// schemes that promise to), and leave the hierarchy valid.

// randomHierarchy builds a random disjoint level-0 tiling with random
// owners drawn from the system's processors.
func randomHierarchy(rng *rand.Rand, sys *machine.System, n int) *amr.Hierarchy {
	h := amr.New(geom.UnitCube(n), 2, 1, 1, false, "q")
	tiles := geom.BoxList{h.Domain}.SplitEvenly(2 + rng.Intn(20))
	tiles.SortByLo()
	for _, b := range tiles {
		h.AddGrid(0, b, rng.Intn(sys.NumProcs()), amr.NoGrid)
	}
	return h
}

func cellsByID(h *amr.Hierarchy) map[amr.GridID]int64 {
	out := map[amr.GridID]int64{}
	for _, g := range h.Grids(0) {
		out[g.ID] = g.NumCells()
	}
	return out
}

func TestLocalBalancePreservesGridsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sys := machine.WanPair(3, nil)
	for trial := 0; trial < 40; trial++ {
		h := randomHierarchy(rng, sys, 12)
		before := cellsByID(h)
		var bal Balancer
		switch trial % 3 {
		case 0:
			bal = mustPolicy("parallel")
		case 1:
			bal = mustPolicy("distributed")
		default:
			bal = mustPolicy("sfc")
		}
		ctx := ctxFor(t, sys, h)
		migs := bal.LocalBalance(ctx, 0)
		after := cellsByID(h)
		if len(after) != len(before) {
			t.Fatalf("trial %d (%s): grid population changed", trial, bal.Name())
		}
		for id, c := range before {
			if after[id] != c {
				t.Fatalf("trial %d (%s): grid %d resized", trial, bal.Name(), id)
			}
		}
		// Migration records must match actual ownership changes and
		// stay within groups for the group-aware schemes.
		for _, m := range migs {
			if g := h.Grid(m.Grid); g.Owner != m.To {
				t.Fatalf("trial %d: migration record inconsistent", trial)
			}
			if bal.Name() != "parallel-dlb" && !sys.SameGroup(m.From, m.To) {
				t.Fatalf("trial %d (%s): crossed groups", trial, bal.Name())
			}
		}
		if err := h.CheckProperNesting(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLocalBalanceNeverWorsensImbalanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	sys := machine.Origin2000("ANL", 5)
	for trial := 0; trial < 40; trial++ {
		h := randomHierarchy(rng, sys, 12)
		ctx := ctxFor(t, sys, h)
		before := Imbalance(levelWork(ctx, 0))
		mustPolicy("parallel").LocalBalance(ctx, 0)
		after := Imbalance(levelWork(ctx, 0))
		if after > before+1e-12 {
			t.Fatalf("trial %d: imbalance worsened %v -> %v", trial, before, after)
		}
	}
}

func TestGlobalBalancePreservesCellsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sys := machine.WanPair(2, nil)
	for trial := 0; trial < 30; trial++ {
		h := randomHierarchy(rng, sys, 12)
		ctx := ctxFor(t, sys, h)
		recordCellLoads(ctx)
		ctx.Load.SetIntervalTime(10 + rng.Float64()*200)
		total := h.TotalCells(0)
		d := mustPolicy("distributed").GlobalBalance(ctx)
		if h.TotalCells(0) != total {
			t.Fatalf("trial %d: global balance changed total cells", trial)
		}
		if err := h.CheckProperNesting(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Redistribution, when it happens, must reduce the group gap.
		if d.Invoked {
			if ctx.Load.ImbalanceRatio() < 1 {
				t.Fatalf("trial %d: ratio below 1?", trial)
			}
		}
	}
}
