package amr

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/mpx"
	"samrdlb/internal/solver"
)

// fabric joins the worlds of one test communicator in this process, as
// the tcp transport does over sockets: a world hosts one rank, a shard,
// and a Send is recorded, copied and delivered into the world of its
// destination.
type fabric struct {
	worlds []*mpx.World

	mu   sync.Mutex
	sent []wireSend // the last run's sends, in the order they were made
}

// wireSend is one message the transport carried.
type wireSend struct{ src, dst, tag int }

// newFabric joins n shards.
func newFabric(n int) *fabric {
	f := &fabric{}
	for s := range n {
		f.worlds = append(f.worlds, mpx.NewShardWorld(n, func(r int) int { return r }, s, fabricEnd{f, s}))
	}
	return f
}

// fabricEnd is one shard's view of the fabric.
type fabricEnd struct {
	f     *fabric
	shard int
}

func (e fabricEnd) Send(src, dst, tag int, data []float64) error {
	f := e.f
	f.mu.Lock()
	f.sent = append(f.sent, wireSend{src, dst, tag})
	f.mu.Unlock()
	// Into a payload the receiver released, as the tcp decode does.
	buf := f.worlds[dst].Buffer(len(data))
	copy(buf, data)
	f.worlds[dst].Deliver(src, dst, tag, buf)
	return nil
}

// Abort wakes the other shards' blocked ranks, as the tcp abort frame
// does.
func (e fabricEnd) Abort(cause string) {
	for s, w := range e.f.worlds {
		if s != e.shard {
			w.AbortFromWire(cause)
		}
	}
}

func (fabricEnd) Close() error { return nil }

// run runs body on every shard's world concurrently and joins them, as
// the engine's shard set does: a panic anywhere is re-raised as one
// *mpx.RunPanicError over every shard's panics.
func (f *fabric) run(body func(r *mpx.Rank)) {
	f.sent = f.sent[:0]
	var wg sync.WaitGroup
	panics := make([]any, len(f.worlds))
	for s, w := range f.worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[s] = recover() }()
			w.Run(body)
		}()
	}
	wg.Wait()
	var merged mpx.RunPanicError
	for _, p := range panics {
		switch v := p.(type) {
		case nil:
		case *mpx.RunPanicError:
			merged.Panics = append(merged.Panics, v.Panics...)
		default:
			panic(v)
		}
	}
	if len(merged.Panics) > 0 {
		panic(&merged)
	}
}

// layout splits grid owners (processors) into shards.
type layout struct {
	name    string
	shardOf func(owner int) int
}

// layouts: every owner in one shard, so all data moves directly; each
// owner its own shard, so every exchange between owners is a message;
// and even owners apart from odd ones, so both kinds meet in one
// exchange.
var layouts = []layout{
	{"one shard", func(int) int { return 0 }},
	{"shard per owner", func(o int) int { return o }},
	{"even/odd shards", func(o int) int { return o % 2 }},
}

// split returns the shard of each of n owners.
func (l layout) split(n int) []int {
	shards := make([]int, n)
	for o := range shards {
		shards[o] = l.shardOf(o)
	}
	return shards
}

// shardViews gives each shard its own copy of h in which every grid
// another shard owns is NaN, as a worker process holds current data
// only for its own group's grids: whatever a shard learns of another
// shard's grid has come over the wire.
func shardViews(h *Hierarchy, shards []int) []*Hierarchy {
	views := make([]*Hierarchy, slices.Max(shards)+1)
	for s := range views {
		views[s] = cloneHierarchy(h)
		for l := 0; l <= h.MaxLevel; l++ {
			for _, g := range views[s].Grids(l) {
				if shards[g.Owner] == s {
					continue
				}
				for _, f := range h.Fields {
					vals := g.Patch.Field(f)
					for k := range vals {
						vals[k] = math.NaN()
					}
				}
			}
		}
	}
	return views
}

// gather returns what the shards computed together: each grid as the
// view of the shard that owns it holds it.
func gather(views []*Hierarchy, shards []int) *Hierarchy {
	out := cloneHierarchy(views[0])
	for l := 0; l <= out.MaxLevel; l++ {
		for i, g := range out.Grids(l) {
			src := views[shards[g.Owner]].Grids(l)[i]
			for _, f := range out.Fields {
				copy(g.Patch.Field(f), src.Patch.Field(f))
			}
		}
	}
	return out
}

// runShards runs body on every shard of the split, each against its
// view of h and with the owner-to-shard map, and gathers the result.
// h is not changed.
func runShards(h *Hierarchy, shards []int, body func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int)) *Hierarchy {
	views := shardViews(h, shards)
	shardOf := func(o int) int { return shards[o] }
	newFabric(len(views)).run(func(r *mpx.Rank) { body(views[r.ID()], r, shardOf) })
	return gather(views, shards)
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
// data and owners drawn at random from the given processors — so a
// machine larger than the draw has processors, and under some layouts
// shards, that own nothing and pairs that exchange nothing.
func buildDeepDataHierarchy(t *testing.T, seed int64, owners []int, fx dataFixture) *Hierarchy {
	t.Helper()
	h := New(geom.UnitCube(16), fx.r, 2, 1, true, fx.fields...)
	rng := rand.New(rand.NewSource(seed))
	add := func(l int, b geom.Box, parent GridID) {
		g := h.AddGrid(l, b, owners[rng.Intn(len(owners))], parent)
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

// deepOwnerDraws are (processors, processors that own grids) cases
// for the three-level fixture: everyone owns something; processors 3
// and 5 own nothing; one processor owns everything while the others
// idle.
var deepOwnerDraws = []struct {
	procs  int
	owners []int
}{
	{4, []int{0, 1, 2, 3}},
	{6, []int{0, 1, 2, 4}},
	{3, []int{1}},
}

// TestFillGhostsMPXMatchesSequential: the wire fill equals the scan
// baseline, FillGhostsScan, on every cell a kernel reads, on both
// fixtures, every owner draw and every layout. The shared-memory fill
// is the same executor with a nil rank, so it is no reference.
func TestFillGhostsMPXMatchesSequential(t *testing.T) {
	fill := func(levels int) func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int) {
		return func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int) {
			for l := 0; l < levels; l++ {
				v.FillGhostsMPX(r, l, shardOf)
			}
		}
	}
	for _, fx := range dataFixtures {
		for _, lay := range layouts {
			for _, owners := range []int{1, 2, 4} {
				seq := buildFixtureHierarchy(t, owners, fx)
				par := runShards(seq, lay.split(owners), fill(2))
				for l := 0; l <= 1; l++ {
					seq.FillGhostsScan(l)
				}
				assertSameData(t, seq, par, fmt.Sprintf("ghosts %v, %d owners, %s", fx, owners, lay.name))
			}
			for seed, c := range deepOwnerDraws {
				seq := buildDeepDataHierarchy(t, int64(seed), c.owners, fx)
				par := runShards(seq, lay.split(c.procs), fill(3))
				for l := 0; l <= 2; l++ {
					seq.FillGhostsScan(l)
				}
				assertSameData(t, seq, par, fmt.Sprintf("deep ghosts %v, owners %v of %d, %s", fx, c.owners, c.procs, lay.name))
			}
		}
	}
}

// TestRestrictMPXMatchesSequential: the wire restriction equals the
// scan baseline, RestrictDataScan, on both fixtures, every owner draw
// and every layout.
func TestRestrictMPXMatchesSequential(t *testing.T) {
	for _, fx := range dataFixtures {
		for _, lay := range layouts {
			for _, owners := range []int{1, 3} {
				seq := buildFixtureHierarchy(t, owners, fx)
				par := runShards(seq, lay.split(owners), func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int) {
					v.RestrictMPX(r, 1, shardOf)
				})
				seq.RestrictDataScan(1)
				assertSameData(t, seq, par, fmt.Sprintf("restrict %v, %d owners, %s", fx, owners, lay.name))
			}
			for seed, c := range deepOwnerDraws {
				seq := buildDeepDataHierarchy(t, int64(seed), c.owners, fx)
				par := runShards(seq, lay.split(c.procs), func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int) {
					v.RestrictMPX(r, 2, shardOf)
					v.RestrictMPX(r, 1, shardOf)
				})
				seq.RestrictDataScan(2)
				seq.RestrictDataScan(1)
				assertSameData(t, seq, par, fmt.Sprintf("deep restrict %v, owners %v of %d, %s", fx, c.owners, c.procs, lay.name))
			}
		}
	}
}

// TestRestrictMPXSharedCoarseCell: one parent's fine grids on two
// shards that share a coarse cell — a fine grid split at an odd fine
// plane — restrict, on every layout and at pool widths 1 and 4, to
// exactly RestrictDataScan's bits: each parent's task takes its fine
// grids in plan order, a remote one's from its message, so the shared
// cell keeps the level-order last writer. The shared-memory run, a nil
// rank, is checked the same way.
func TestRestrictMPXSharedCoarseCell(t *testing.T) {
	build := func() *Hierarchy {
		h := New(geom.UnitCube(8), 2, 1, 1, true, "q", "rho")
		rng := rand.New(rand.NewSource(5))
		fill := func(g *Grid) {
			for _, f := range h.Fields {
				g.Patch.FillFunc(f, func(geom.Index) float64 { return rng.Float64() })
			}
		}
		for i, b := range (geom.BoxList{h.Domain}).SplitEvenly(4) {
			p := h.AddGrid(0, b, i%3, NoGrid)
			fill(p)
			c := h.AddGrid(1, p.Box.Refine(2), p.Owner, p.ID)
			fill(c)
			// Cut at an odd fine plane: the coarse cell across it is
			// covered by both halves, which land on two owners, the
			// later one in plan order the other owner or the parent's.
			lo, hi := h.SplitGrid(c, 0, c.Box.Lo[0]+3)
			h.SetOwner([]*Grid{hi, lo}[i%2], (p.Owner+1)%3)
		}
		return h
	}
	bits := func(h *Hierarchy) [][]uint64 {
		var out [][]uint64
		for _, g := range h.Grids(0) {
			for _, f := range h.Fields {
				v := make([]uint64, 0, len(g.Patch.Field(f)))
				for _, x := range g.Patch.Field(f) {
					v = append(v, math.Float64bits(x))
				}
				out = append(out, v)
			}
		}
		return out
	}
	ref := build()
	ref.RestrictDataScan(1)
	want := bits(ref)
	for _, workers := range []int{1, 4} {
		h := build()
		h.SetPool(solver.NewPool(workers))
		h.RestrictData(1)
		if !slices.EqualFunc(bits(h), want, slices.Equal) {
			t.Errorf("shared memory, %d workers: the restriction differs from RestrictDataScan", workers)
		}
		for _, lay := range layouts {
			par := runShards(build(), lay.split(3), func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int) {
				v.SetPool(solver.NewPool(workers))
				v.RestrictMPX(r, 1, shardOf)
			})
			if !slices.EqualFunc(bits(par), want, slices.Equal) {
				t.Errorf("%s, %d workers: the restriction differs from RestrictDataScan", lay.name, workers)
			}
		}
	}
}

// TestMPXWireCarriesOnlyCrossShard pins what the transport sees through
// a fill of every level and a restriction of every level, on the
// even/odd split of a fixture whose processors exchange data both
// within and across shards: each ordered shard pair exchanges one
// message in each exchange it has data in — prolongations and sibling
// copies travel together — and what owners of one shard move among
// themselves never reaches the wire.
func TestMPXWireCarriesOnlyCrossShard(t *testing.T) {
	seq := buildDeepDataHierarchy(t, 0, []int{0, 1, 2, 3}, dataFixtures[0])
	shards := layouts[2].split(4)
	shardOf := func(o int) int { return shards[o] }

	// want counts, per (source shard, destination shard, tag), the
	// exchanges that move data between the two.
	want := map[wireSend]int{}
	sameShardOps, prolongs := 0, 0
	add := func(pairs map[wireSend]bool) {
		for p := range pairs {
			want[p]++
		}
	}
	for l := 0; l <= 2; l++ {
		pairs := map[wireSend]bool{}
		for _, d := range seq.fillPlan(l) {
			for _, op := range d.ops {
				from, to := shardOf(op.src.Owner), shardOf(d.g.Owner)
				switch {
				case from != to:
					pairs[wireSend{from, to, tagFill}] = true
					if op.prolong {
						prolongs++
					}
				case op.src.Owner != d.g.Owner:
					sameShardOps++
				}
			}
		}
		add(pairs)
	}
	for l := 2; l > 0; l-- {
		pairs := map[wireSend]bool{}
		for _, g := range seq.Grids(l) {
			if from, to := shardOf(g.Owner), shardOf(seq.Grid(g.Parent).Owner); from != to {
				pairs[wireSend{from, to, tagRestrict}] = true
			}
		}
		add(pairs)
	}
	if len(want) == 0 || sameShardOps == 0 || prolongs == 0 {
		t.Fatalf("fixture has %d cross-shard messages, %d of whose ops prolong, and %d same-shard cross-owner ops; it needs all three",
			len(want), prolongs, sameShardOps)
	}

	views := shardViews(seq, shards)
	f := newFabric(len(views))
	f.run(func(r *mpx.Rank) {
		v := views[r.ID()]
		for l := 0; l <= 2; l++ {
			v.FillGhostsMPX(r, l, shardOf)
		}
		v.RestrictMPX(r, 2, shardOf)
		v.RestrictMPX(r, 1, shardOf)
	})

	got := map[wireSend]int{}
	for _, m := range f.sent {
		got[m]++
	}
	if !maps.Equal(got, want) {
		t.Errorf("the wire carried %v (source shard, destination shard, tag): count, want %v", got, want)
	}
	for l := 0; l <= 2; l++ {
		seq.FillGhostsScan(l)
	}
	seq.RestrictDataScan(2)
	seq.RestrictDataScan(1)
	assertSameData(t, seq, gather(views, shards), "even/odd shards")
}

// TestMPXExchangeSteadyStateAllocs pins the coalesced exchange's
// allocation profile on warmed worlds: a fill costs a fixed amount per
// shard (its goroutine, the host pool's workers), however many shard
// pairs communicate and however many plan operations a pair's message
// carries. The transport copies each message into the payload its
// receiver released the exchange before, so a pair costs nothing.
func TestMPXExchangeSteadyStateAllocs(t *testing.T) {
	const owners = 4
	for _, grids := range []int{64, 512} {
		h := New(geom.UnitCube(32), 2, 0, 1, true, "q", "rho")
		boxes := geom.BoxList{h.Domain}.SplitEvenly(grids)
		boxes.SortByLo()
		// The boxes are equal cubes; owners step along every axis, so
		// each face neighbour has another owner.
		side := boxes[0].Shape()[0]
		for _, b := range boxes {
			h.AddGrid(0, b, (b.Lo[0]+b.Lo[1]+b.Lo[2])/side%owners, NoGrid)
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
		// The per-shard term covers a world's goroutine and scratch with
		// room to spare (the hierarchy has no pool, so the fill's local
		// ops run inline). The race detector's sync.Pool drops puts at random, so
		// there the bounds are not applied; the fills and the fixture
		// guard still run.
		perShard := func(n int) float64 { return float64(12 * n) }
		if float64(ops) < 2*perShard(owners) {
			t.Fatalf("%d grids: fixture has only %d cross-owner ops; the bound %.0f no longer separates per-shard from per-op cost",
				grids, ops, perShard(owners))
		}
		for _, c := range []struct {
			lay   layout
			bound float64
		}{{layouts[1], perShard(owners)}, {layouts[0], perShard(1)}} {
			shards := c.lay.split(owners)
			shardOf := func(o int) int { return shards[o] }
			f := newFabric(slices.Max(shards) + 1)
			fill := func() { f.run(func(r *mpx.Rank) { h.FillGhostsMPX(r, 0, shardOf) }) }
			fill() // warm the plan cache, the scratch pool and the mailboxes
			allocs := testing.AllocsPerRun(20, fill)
			if allocs > c.bound && !raceEnabled {
				t.Errorf("%d grids, %s: a fill of %d cross-owner ops over %d owner pairs allocated %.0f times, want ≤ %.0f",
					grids, c.lay.name, ops, len(pairs), allocs, c.bound)
			}
		}
	}
}

// TestMPXPlanDisagreementPanics: two ranks walking different plans
// (here: different ghost widths, so shard 1 ships and expects wider
// overlaps than shard 0) must fail the phase at once on the message
// length — as a computation panic, which the engine re-raises, not as
// a transport failure it would paper over with the fallback path. The
// owners are in different shards, since owners of one shard read each
// other's grids without a message.
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
			short = short || strings.Contains(msg, "shard 1 needs values 0..128 of shard 0's message, which has 64")
			long = long || strings.Contains(msg, "shard 0 consumed 64/128 values of shard 1's message")
		}
		if !short || !long {
			t.Errorf("want the overrun on rank 1 and the leftover on rank 0 reported, got %v", agg)
		}
	}()
	newFabric(2).run(func(r *mpx.Rank) { views[r.ID()].FillGhostsMPX(r, 0, layouts[1].shardOf) })
}

func TestMPXDeterministicAcrossRuns(t *testing.T) {
	h := buildDataHierarchy(t, 4)
	for _, lay := range layouts {
		run := func() *Hierarchy {
			return runShards(h, lay.split(4), func(v *Hierarchy, r *mpx.Rank, shardOf func(int) int) {
				v.FillGhostsMPX(r, 0, shardOf)
				v.FillGhostsMPX(r, 1, shardOf)
				v.RestrictMPX(r, 1, shardOf)
			})
		}
		assertSameData(t, run(), run(), "determinism, "+lay.name)
	}
}

func TestMPXPlanOnlyIsNoop(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	f := newFabric(2)
	f.run(func(r *mpx.Rank) {
		h.FillGhostsMPX(r, 0, layouts[1].shardOf) // must not panic on nil patches
		h.RestrictMPX(r, 1, layouts[1].shardOf)
	})
	if len(f.sent) > 0 {
		t.Errorf("a plan-only hierarchy sent %v", f.sent)
	}
}
