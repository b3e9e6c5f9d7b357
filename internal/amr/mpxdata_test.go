package amr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/mpx"
)

// noWire is the transport of a world whose ranks all live in one shard:
// no message ever crosses it.
type noWire struct{}

func (noWire) Send(src, dst, tag int, data []float64) error { panic("amr: noWire carries nothing") }
func (noWire) Abort(string)                                 {}
func (noWire) Close() error                                 { return nil }

// localWorld is an n-rank world hosted whole in this process.
func localWorld(n int) *mpx.World {
	return mpx.NewShardWorld(n, func(int) int { return 0 }, 0, noWire{})
}

// dataFixture is the field list and refinement factor of a data
// fixture. The wire packs fields in Patch.FieldAt order, which is
// sorted, and restricts them in h.Fields order, so the second fixture
// lists its fields out of sorted order; it also refines by 3.
type dataFixture struct {
	fields []string
	r      int
}

var dataFixtures = []dataFixture{{[]string{"q", "rho"}, 2}, {[]string{"rho", "q", "e"}, 3}}

// buildDataHierarchy makes a two-level hierarchy of the first fixture.
func buildDataHierarchy(t *testing.T, owners int) *Hierarchy {
	t.Helper()
	return buildFixtureHierarchy(t, owners, dataFixtures[0])
}

// buildFixtureHierarchy makes a two-level hierarchy of fixture fx with
// random data, grids spread over the given number of owners.
func buildFixtureHierarchy(t *testing.T, owners int, fx dataFixture) *Hierarchy {
	t.Helper()
	h := New(geom.UnitCube(16), fx.r, 1, 1, true, fx.fields...)
	rng := rand.New(rand.NewSource(99))
	boxes := geom.BoxList{h.Domain}.SplitEvenly(8)
	boxes.SortByLo()
	for i, b := range boxes {
		g := h.AddGrid(0, b, i%owners, NoGrid)
		for _, f := range h.Fields {
			g.Patch.FillFunc(f, func(geom.Index) float64 { return rng.Float64() })
		}
	}
	// Fine grids covering a central region, split over two parents.
	for _, p := range h.Grids(0) {
		child := p.Box.Intersect(geom.BoxFromShape(geom.Index{4, 4, 4}, geom.Index{8, 8, 8}))
		if child.Empty() {
			continue
		}
		c := h.AddGrid(1, child.Refine(fx.r), (p.Owner+1)%owners, p.ID)
		for _, f := range h.Fields {
			c.Patch.FillFunc(f, func(geom.Index) float64 { return rng.Float64() })
		}
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("bad fixture: %v", err)
	}
	return h
}

// cloneHierarchy deep-copies grids and data preserving IDs and owners.
func cloneHierarchy(h *Hierarchy) *Hierarchy {
	out := New(h.Domain, h.RefFactor, h.MaxLevel, h.NGhost, true, h.Fields...)
	idMap := map[GridID]GridID{NoGrid: NoGrid}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			ng := out.AddGrid(l, g.Box, g.Owner, idMap[g.Parent])
			idMap[g.ID] = ng.ID
			for _, f := range h.Fields {
				copy(ng.Patch.Field(f), g.Patch.Field(f))
			}
		}
	}
	return out
}

// assertSameData requires a and b to hold the same grids with the same
// values on every cell a kernel reads: interiors and face slabs
// (grid.StencilDiff). Edge and corner ghosts are not compared; the
// edge-poison test in internal/engine shows no kernel reads them.
func assertSameData(t *testing.T, a, b *Hierarchy, context string) {
	t.Helper()
	for l := 0; l <= a.MaxLevel; l++ {
		ga, gb := a.Grids(l), b.Grids(l)
		if len(ga) != len(gb) {
			t.Fatalf("%s: level %d grid counts differ", context, l)
		}
		for i := range ga {
			if f, k, ok := grid.StencilDiff(ga[i].Patch, gb[i].Patch); ok {
				t.Fatalf("%s: level %d grid %d field %s differs at %v: %v vs %v", context, l, i, f,
					ga[i].Patch.Grown().IndexAt(k), ga[i].Patch.Field(f)[k], gb[i].Patch.Field(f)[k])
			}
		}
	}
}

// buildDeepDataHierarchy makes a three-level hierarchy of fixture fx
// (8 grids per level, each fine grid inside one parent) with random
// data and owners drawn at random from the given ranks — so a world
// larger than the draw has ranks that own nothing and pairs that
// exchange nothing.
func buildDeepDataHierarchy(t *testing.T, seed int64, ranks []int, fx dataFixture) *Hierarchy {
	t.Helper()
	h := New(geom.UnitCube(16), fx.r, 2, 1, true, fx.fields...)
	rng := rand.New(rand.NewSource(seed))
	add := func(l int, b geom.Box, parent GridID) {
		g := h.AddGrid(l, b, ranks[rng.Intn(len(ranks))], parent)
		for _, f := range h.Fields {
			g.Patch.FillFunc(f, func(geom.Index) float64 { return rng.Float64() })
		}
	}
	boxes := geom.BoxList{h.Domain}.SplitEvenly(8)
	boxes.SortByLo()
	for _, b := range boxes {
		add(0, b, NoGrid)
	}
	// Refined regions in the index space of the level they refine, each
	// nested inside the level above.
	outer := geom.Box{Lo: geom.Index{3, 3, 3}, Hi: geom.Index{12, 12, 12}}
	for l, region := range []geom.Box{outer, outer.Refine(fx.r).Grow(-4)} {
		for _, p := range h.Grids(l) {
			if child := p.Box.Intersect(region); !child.Empty() {
				add(l+1, child.Refine(fx.r), p.ID)
			}
		}
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("bad fixture: %v", err)
	}
	return h
}

// deepOwnerDraws are (world size, ranks that own grids) cases for the
// three-level fixture: everyone owns something; ranks 3 and 5 own
// nothing; one rank owns everything while the others idle.
var deepOwnerDraws = []struct {
	world int
	ranks []int
}{
	{4, []int{0, 1, 2, 3}},
	{6, []int{0, 1, 2, 4}},
	{3, []int{1}},
}

// TestFillGhostsMPXMatchesSequential: the wire fill equals the
// shared-memory one on both fixtures and every owner draw.
func TestFillGhostsMPXMatchesSequential(t *testing.T) {
	for _, fx := range dataFixtures {
		for _, owners := range []int{1, 2, 4} {
			seq := buildFixtureHierarchy(t, owners, fx)
			par := cloneHierarchy(seq)
			for l := 0; l <= 1; l++ {
				seq.FillGhostsData(l)
			}
			localWorld(owners).Run(func(r *mpx.Rank) {
				for l := 0; l <= 1; l++ {
					par.FillGhostsMPX(r, l)
				}
			})
			assertSameData(t, seq, par, fmt.Sprintf("ghosts %v, %d owners", fx, owners))
		}
		for seed, c := range deepOwnerDraws {
			seq := buildDeepDataHierarchy(t, int64(seed), c.ranks, fx)
			par := cloneHierarchy(seq)
			for l := 0; l <= 2; l++ {
				seq.FillGhostsData(l)
			}
			localWorld(c.world).Run(func(r *mpx.Rank) {
				for l := 0; l <= 2; l++ {
					par.FillGhostsMPX(r, l)
				}
			})
			assertSameData(t, seq, par, fmt.Sprintf("deep ghosts %v, owners %v of %d", fx, c.ranks, c.world))
		}
	}
}

// TestRestrictMPXMatchesSequential: the wire restriction equals the
// shared-memory one on both fixtures and every owner draw.
func TestRestrictMPXMatchesSequential(t *testing.T) {
	for _, fx := range dataFixtures {
		for _, owners := range []int{1, 3} {
			seq := buildFixtureHierarchy(t, owners, fx)
			par := cloneHierarchy(seq)
			seq.RestrictData(1)
			localWorld(owners).Run(func(r *mpx.Rank) {
				par.RestrictMPX(r, 1)
			})
			assertSameData(t, seq, par, fmt.Sprintf("restrict %v, %d owners", fx, owners))
		}
		for seed, c := range deepOwnerDraws {
			seq := buildDeepDataHierarchy(t, int64(seed), c.ranks, fx)
			par := cloneHierarchy(seq)
			seq.RestrictData(2)
			seq.RestrictData(1)
			localWorld(c.world).Run(func(r *mpx.Rank) {
				par.RestrictMPX(r, 2)
				par.RestrictMPX(r, 1)
			})
			assertSameData(t, seq, par, fmt.Sprintf("deep restrict %v, owners %v of %d", fx, c.ranks, c.world))
		}
	}
}

// TestMPXExchangeSteadyStateAllocs pins the coalesced exchange's
// allocation profile on a warmed in-process world: a fill costs the
// world's per-rank goroutine start plus a few allocations per
// communicating rank pair (the mailbox's copy of the one message),
// however many plan operations the pair's message carries.
func TestMPXExchangeSteadyStateAllocs(t *testing.T) {
	const ranks = 4
	for _, grids := range []int{64, 512} {
		h := New(geom.UnitCube(32), 2, 0, 1, true, "q", "rho")
		boxes := geom.BoxList{h.Domain}.SplitEvenly(grids)
		boxes.SortByLo()
		// The boxes are equal cubes; owners step along every axis, so
		// each face neighbour is on another rank.
		side := boxes[0].Shape()[0]
		for _, b := range boxes {
			h.AddGrid(0, b, (b.Lo[0]+b.Lo[1]+b.Lo[2])/side%ranks, NoGrid)
		}
		ops := 0
		pairs := map[[2]int]bool{}
		for _, d := range h.fillPlan(0) {
			for _, op := range d.ops {
				if op.src.Owner != d.g.Owner {
					ops++
					pairs[[2]int{op.src.Owner, d.g.Owner}] = true
				}
			}
		}
		w := localWorld(ranks)
		fill := func() { w.Run(func(r *mpx.Rank) { h.FillGhostsMPX(r, 0) }) }
		fill() // warm the plan cache, the scratch pool and the mailboxes
		allocs := testing.AllocsPerRun(20, fill)
		// The per-rank term covers the world's goroutine starts with room
		// to spare. The race detector's sync.Pool drops puts at random, so
		// there the bound is not applied; the fill and the fixture guard
		// still run.
		bound := float64(24*ranks + 4*len(pairs))
		if allocs > bound && !raceEnabled {
			t.Errorf("%d grids: a fill of %d cross-rank ops over %d rank pairs allocated %.0f times, want ≤ %.0f",
				grids, ops, len(pairs), allocs, bound)
		}
		if float64(ops) < 2*bound {
			t.Fatalf("%d grids: fixture has only %d cross-rank ops; the bound %.0f no longer separates per-pair from per-op cost",
				grids, ops, bound)
		}
	}
}

// TestMPXPlanDisagreementPanics: two ranks walking different plans
// (here: different ghost widths, so rank 1 ships and expects wider
// overlaps than rank 0) must fail the phase at once on the message
// length — as a computation panic, which the engine re-raises, not as
// a transport failure it would paper over with the fallback path.
func TestMPXPlanDisagreementPanics(t *testing.T) {
	build := func(nghost int) *Hierarchy {
		h := New(geom.UnitCube(8), 2, 0, nghost, true, "q")
		for i, b := range (geom.BoxList{h.Domain}).SplitEvenly(2) {
			h.AddGrid(0, b, i, NoGrid)
		}
		return h
	}
	views := []*Hierarchy{build(1), build(2)}
	defer func() {
		agg, ok := recover().(*mpx.RunPanicError)
		if !ok {
			t.Fatal("a plan disagreement did not panic the phase")
		}
		if agg.TransportOnly() {
			t.Errorf("plan disagreement classified as a transport failure: %v", agg)
		}
		short, long := false, false
		for _, p := range agg.Panics {
			msg := fmt.Sprint(p.Value)
			short = short || strings.Contains(msg, "rank 1 needs values 0..128 of rank 0's message, which has 64")
			long = long || strings.Contains(msg, "rank 0 consumed 64/128 values of rank 1's message")
		}
		if !short || !long {
			t.Errorf("want the overrun on rank 1 and the leftover on rank 0 reported, got %v", agg)
		}
	}()
	localWorld(2).Run(func(r *mpx.Rank) { views[r.ID()].FillGhostsMPX(r, 0) })
}

func TestMPXDeterministicAcrossRuns(t *testing.T) {
	a := buildDataHierarchy(t, 4)
	b := cloneHierarchy(a)
	run := func(h *Hierarchy) {
		w := localWorld(4)
		w.Run(func(r *mpx.Rank) {
			h.FillGhostsMPX(r, 0)
			h.FillGhostsMPX(r, 1)
			h.RestrictMPX(r, 1)
		})
	}
	run(a)
	run(b)
	assertSameData(t, a, b, "determinism")
}

func TestMPXPlanOnlyIsNoop(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	w := localWorld(2)
	w.Run(func(r *mpx.Rank) {
		h.FillGhostsMPX(r, 0) // must not panic on nil patches
		h.RestrictMPX(r, 1)
	})
}
