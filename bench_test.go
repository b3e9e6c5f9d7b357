package samrdlb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/cluster"
	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/exp"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/load"
	"samrdlb/internal/machine"
	"samrdlb/internal/mpx"
	"samrdlb/internal/netsim"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// benchOpts keeps figure benchmarks bounded: two configurations and a
// short horizon per iteration. The full paper sweep is cmd/figures.
func benchOpts() exp.Options {
	return exp.Options{Steps: 6, Configs: []int{2, 4}, Seed: 42}
}

// BenchmarkFig1Hierarchy regenerates Figure 1: building the four-level
// grid hierarchy from flagged cells (regrid of the blob driver).
func BenchmarkFig1Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := machine.Origin2000("ANL", 4)
		r := engine.New(sys, workload.NewStaticBlob(16, 2), engine.Options{Steps: 1, MaxLevel: 3})
		res := r.Run()
		if r.Hierarchy().NumLevels() < 3 {
			b.Fatal("hierarchy too shallow")
		}
		_ = res
	}
}

// BenchmarkFig2ExecutionOrder regenerates Figure 2: one level-0 step
// through four subcycled levels.
func BenchmarkFig2ExecutionOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := machine.WanPair(2, nil)
		r := engine.New(sys, workload.NewStaticBlob(16, 2), engine.Options{Steps: 1, MaxLevel: 3})
		r.Run()
	}
}

// BenchmarkFig3ParallelVsDistributed regenerates Figure 3: the
// parallel-machine vs distributed-system comparison under the parallel
// DLB.
func BenchmarkFig3ParallelVsDistributed(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if txt := exp.Fig3Report(o, exp.Text); !strings.Contains(txt, "\n4+4 ") {
			b.Fatalf("no 4+4 row:\n%s", txt)
		}
	}
}

// BenchmarkFig6Redistribution regenerates Figure 6's event: a global
// imbalance check ending in a boundary-shifting redistribution.
func BenchmarkFig6Redistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := machine.WanPair(2, nil)
		h := amr.New(geom.UnitCube(16), 2, 1, 1, false, "q")
		for x := 0; x < 16; x += 2 {
			owner := 0
			if x >= 12 {
				owner = 2
			}
			h.AddGrid(0, geom.BoxFromShape(geom.Index{x, 0, 0}, geom.Index{2, 16, 16}), owner, amr.NoGrid)
		}
		ctx := newContext(sys, h)
		b.StartTimer()
		d := distributedDLB.GlobalBalance(ctx)
		if !d.Invoked {
			b.Fatal("redistribution did not happen")
		}
	}
}

// BenchmarkFig7ExecutionTimeAMR64 regenerates Figure 7's AMR64 series
// (LAN system, both schemes).
func BenchmarkFig7ExecutionTimeAMR64(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows := exp.Fig7("AMR64", o)
		for _, r := range rows {
			if r.Distributed <= 0 {
				b.Fatal("bad run")
			}
		}
	}
}

// BenchmarkFig7ExecutionTimeShockPool3D regenerates Figure 7's
// ShockPool3D series (WAN system, both schemes).
func BenchmarkFig7ExecutionTimeShockPool3D(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows := exp.Fig7("ShockPool3D", o)
		for _, r := range rows {
			if r.Distributed <= 0 {
				b.Fatal("bad run")
			}
		}
	}
}

// BenchmarkFig8Efficiency regenerates Figure 8: the efficiency series
// including the sequential E(1) baseline.
func BenchmarkFig8Efficiency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows := exp.Fig8("ShockPool3D", o)
		for _, r := range rows {
			if r.DistEfficiency <= 0 {
				b.Fatal("bad efficiency")
			}
		}
	}
}

// BenchmarkGammaSweep runs the γ-sensitivity ablation.
func BenchmarkGammaSweep(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if txt := exp.GammaReport(o, exp.Text); !strings.Contains(txt, "\n8.0 ") {
			b.Fatalf("no γ = 8 row:\n%s", txt)
		}
	}
}

// BenchmarkProbe measures the two-message α/β estimation (Section
// 4.2's cost model input).
func BenchmarkProbe(b *testing.B) {
	link := netsim.MrenWAN(&netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, Seed: 1})
	for i := 0; i < b.N; i++ {
		_, _, _ = link.Probe(float64(i) * 0.1)
	}
}

// --- micro-benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkGaussSeidel measures the elliptic relaxation on a 32³
// patch.
func BenchmarkGaussSeidel(b *testing.B) {
	p := grid.NewPatch(geom.UnitCube(32), 0, 1, solver.FieldPhi, solver.FieldRho)
	gs := solver.GaussSeidel{Sweeps: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Step(p, 0, 1.0/32)
	}
}

// BenchmarkBergerRigoutsos measures clustering a shock-plane flag
// pattern on a 64³ level.
func BenchmarkBergerRigoutsos(b *testing.B) {
	f := cluster.NewFlagField(geom.UnitCube(64))
	s := workload.NewShockPool3D(64, 2)
	s.Flag(0, 0.5, f)
	p := cluster.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxes := cluster.Cluster(f, p)
		if len(boxes) == 0 {
			b.Fatal("no boxes")
		}
	}
}

// BenchmarkDilate measures the regrid buffer — FlagField.Dilate(1),
// in place — on a 64³ field with 5 % of its cells flagged. Flags are
// never cleared, so every iteration flags a fresh field, untimed.
func BenchmarkDilate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seed := make([]bool, 64*64*64)
	for i := range seed {
		seed[i] = rng.Intn(20) == 0
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := cluster.NewFlagField(geom.UnitCube(64))
		f.SetRows(f.Box, func(row cluster.Row, _, y, z int) {
			for k, set := range seed[64*(y+64*z) : 64*(y+64*z+1)] {
				if set {
					row.Set(k)
				}
			}
		})
		b.StartTimer()
		f.Dilate(1)
		if f.Count() == 0 {
			b.Fatal("no flags")
		}
	}
}

// BenchmarkFlagAMR64 measures the AMR64 driver flagging level 1 of a
// 64³ domain (a 128³ field, eight cluster centres).
func BenchmarkFlagAMR64(b *testing.B) {
	a := workload.NewAMR64(64, 2, 1)
	f := cluster.NewFlagField(geom.UnitCube(128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Flag(1, 0.5, f)
		if f.Count() == 0 {
			b.Fatal("no flags")
		}
	}
}

// BenchmarkGhostPlan measures exchange-plan construction for a
// 64-grid level (the per-step communication planning cost).
func BenchmarkGhostPlan(b *testing.B) {
	h := amr.New(geom.UnitCube(32), 2, 1, 1, false, "q")
	boxes := geom.BoxList{h.Domain}.SplitEvenly(64)
	for i, bx := range boxes {
		h.AddGrid(0, bx, i%8, amr.NoGrid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := h.GhostPlan(0, false)
		if len(plan) == 0 {
			b.Fatal("no messages")
		}
	}
}

// BenchmarkLocalBalance measures one local balancing pass over an
// imbalanced 64-grid level.
func BenchmarkLocalBalance(b *testing.B) {
	sys := machine.WanPair(4, nil)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := amr.New(geom.UnitCube(32), 2, 1, 1, false, "q")
		boxes := geom.BoxList{h.Domain}.SplitEvenly(64)
		for _, bx := range boxes {
			h.AddGrid(0, bx, 0, amr.NoGrid) // everything on proc 0
		}
		ctx := newContext(sys, h)
		b.StartTimer()
		migs := parallelDLB.LocalBalance(ctx, 0)
		if len(migs) == 0 {
			b.Fatal("no migrations")
		}
	}
}

// BenchmarkFullStepWithData measures one fully real (data-carrying)
// level-0 step on 8 simulated processors using all host cores.
func BenchmarkFullStepWithData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := machine.WanPair(4, nil)
		r := engine.New(sys, workload.NewShockPool3D(32, 2), engine.Options{
			Steps: 1, MaxLevel: 2, WithData: true, Pool: solver.NewPool(0),
		})
		r.Run()
	}
}

// newRecorder seeds a load recorder with the hierarchy's current
// level-0 distribution, as the engine does after a step.
func newRecorder(sys *machine.System, h *amr.Hierarchy) *load.Recorder {
	rec := load.NewRecorder(sys, h.MaxLevel)
	w := make([]float64, sys.NumProcs())
	for _, g := range h.Grids(0) {
		w[g.Owner] += float64(g.NumCells())
	}
	for p, v := range w {
		rec.RecordLevelWork(p, 0, v)
	}
	rec.SetIntervalTime(100)
	return rec
}

// The paper's two schemes, built once: the benchmarks time the hooks,
// not the table lookup.
var distributedDLB, parallelDLB = mustPolicy("distributed"), mustPolicy("parallel")

func mustPolicy(name string) dlb.Balancer {
	b, err := dlb.NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return b
}

// newContext builds the balancer context the engine would: a seeded
// recorder and a ledger installed as the hierarchy's listener.
func newContext(sys *machine.System, h *amr.Hierarchy) *dlb.Context {
	led := load.NewLedger(sys, h)
	h.SetListener(led)
	return &dlb.Context{Sys: sys, H: h, Load: newRecorder(sys, h), Ledger: led,
		Now: func() float64 { return 0 }}
}

// rankShards is an n-shard world joined in this process, each shard
// hosting one processor: a Send is copied into the destination's world.
// Processors of one shard read each other's grids directly, so only
// here does every cross-processor region of an exchange travel as a
// message.
type rankShards []*mpx.World

func newRankShards(n int) rankShards {
	p := make(rankShards, n)
	for s := range p {
		p[s] = mpx.NewShardWorld(n, ownShard, s, p)
	}
	return p
}

func (p rankShards) Send(src, dst, tag int, data []float64) error {
	p[dst].Deliver(src, dst, tag, slices.Clone(data))
	return nil
}

func (p rankShards) Abort(cause string) {
	for _, w := range p {
		w.AbortFromWire(cause)
	}
}

func (rankShards) Close() error { return nil }

// ownShard maps each processor to the shard of its own number.
func ownShard(p int) int { return p }

// run runs body on every shard concurrently and joins them.
func (p rankShards) run(body func(r *mpx.Rank)) {
	var wg sync.WaitGroup
	for _, w := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(body)
		}()
	}
	wg.Wait()
}

// BenchmarkMPXGhostExchange measures one full message-passing ghost
// exchange over 4 ranks, each its own shard, against the shared-memory
// equivalent.
func BenchmarkMPXGhostExchange(b *testing.B) {
	h := amr.New(geom.UnitCube(32), 2, 0, 1, true, "q")
	boxes := geom.BoxList{h.Domain}.SplitEvenly(16)
	boxes.SortByLo()
	for i, bx := range boxes {
		h.AddGrid(0, bx, i%4, amr.NoGrid)
	}
	w := newRankShards(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.run(func(r *mpx.Rank) {
			h.FillGhostsMPX(r, 0, ownShard)
		})
	}
}

// BenchmarkMPXRestrict measures one message-passing restriction over 4
// ranks, each its own shard: 16 level-1 grids, each owned by a
// different rank than its parent, so every fine grid's average is a
// message.
func BenchmarkMPXRestrict(b *testing.B) {
	h := amr.New(geom.UnitCube(32), 2, 1, 1, true, "q")
	boxes := geom.BoxList{h.Domain}.SplitEvenly(16)
	boxes.SortByLo()
	for i, bx := range boxes {
		p := h.AddGrid(0, bx, i%4, amr.NoGrid)
		h.AddGrid(1, bx.Grow(-1).Refine(2), (i+1)%4, p.ID)
	}
	w := newRankShards(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.run(func(r *mpx.Rank) {
			h.RestrictMPX(r, 1, ownShard)
		})
	}
}

// BenchmarkSharedMemoryGhostExchange is BenchmarkMPXGhostExchange's
// in-process baseline.
func BenchmarkSharedMemoryGhostExchange(b *testing.B) {
	h := amr.New(geom.UnitCube(32), 2, 0, 1, true, "q")
	boxes := geom.BoxList{h.Domain}.SplitEvenly(16)
	boxes.SortByLo()
	for i, bx := range boxes {
		h.AddGrid(0, bx, i%4, amr.NoGrid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FillGhostsData(0)
	}
}

// BenchmarkRefluxedStep measures a full data-carrying level-0 step
// with conservative flux correction enabled.
func BenchmarkRefluxedStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := machine.Origin2000("ANL", 2)
		r := engine.New(sys, workload.NewStaticBlob(16, 2), engine.Options{
			Steps: 1, MaxLevel: 1, WithData: true, Reflux: true,
		})
		r.Run()
	}
}

// BenchmarkFluxRegisterCycle measures the flux registers' whole life on
// a three-level SedovBlast hierarchy, per fine level: build (from the
// cached interface plan), feed every coarse grid once and every fine
// grid r times, apply, release. The fluxes are zero, so the patches do
// not drift; their allocation is part of the cycle.
func BenchmarkFluxRegisterCycle(b *testing.B) {
	r := engine.New(machine.WanPair(2, nil), workload.NewSedovBlast(32, 2),
		engine.Options{Steps: 2, MaxLevel: 2, WithData: true})
	r.Run()
	h := r.Hierarchy()
	if len(h.Grids(2)) == 0 {
		b.Fatal("hierarchy too shallow")
	}
	feed := func(l int, add func(*amr.Grid, *solver.Fluxes)) {
		for _, g := range h.Grids(l) {
			fl := solver.NewFluxes(g.Box)
			add(g, fl)
			fl.Release()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fine := 1; fine <= h.MaxLevel; fine++ {
			fr := amr.NewFluxRegister(h, fine)
			feed(fine-1, fr.AddCoarse)
			for sub := 0; sub < h.RefFactor; sub++ {
				feed(fine, fr.AddFine)
			}
			fr.Apply()
			fr.Release()
		}
	}
}

// --- checkpoint serialisation: fresh buffer vs reused scratch ---
//
// The engine checkpoints the hierarchy every CheckpointInterval
// level-0 steps (in memory for fault recovery, on disk for the durable
// store). This pair shows what reusing one scratch buffer across
// checkpoints saves over allocating a fresh bytes.Buffer each time.

// benchCkptHierarchy builds the 256-grid level the checkpoint
// benchmarks serialise.
func benchCkptHierarchy() *amr.Hierarchy {
	h := amr.New(geom.UnitCube(32), 2, 1, 1, false, "q")
	boxes := geom.BoxList{h.Domain}.SplitEvenly(256)
	for i, bx := range boxes {
		h.AddGrid(0, bx, i%8, amr.NoGrid)
	}
	return h
}

// BenchmarkCheckpointFresh serialises through a new bytes.Buffer per
// checkpoint — the engine's pre-reuse behaviour.
func BenchmarkCheckpointFresh(b *testing.B) {
	h := benchCkptHierarchy()
	var blob []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			b.Fatal(err)
		}
		blob = buf.Bytes()
	}
	_ = blob
}

// BenchmarkCheckpointReuse is the engine's current path: one scratch
// buffer reset per checkpoint, the blob copied into a reused slice.
func BenchmarkCheckpointReuse(b *testing.B) {
	h := benchCkptHierarchy()
	var buf bytes.Buffer
	var blob []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := h.Save(&buf); err != nil {
			b.Fatal(err)
		}
		blob = append(blob[:0], buf.Bytes()...)
	}
	_ = blob
}

// BenchmarkForecastRecord measures the NWS predictor-family update.
func BenchmarkForecastRecord(b *testing.B) {
	s := netsim.NewSeries(64)
	for i := 0; i < b.N; i++ {
		s.Record(float64(i % 17))
	}
}

// --- DLB decision-path benchmarks ---
//
// Each measures one decision-path operation at ~4k level-0 grids on a
// 128-processor WAN pair, reading the incrementally maintained load
// ledger. The grid count matches a large SAMR run, where a
// per-decision O(grids) walk would rival the useful work (the
// pre-ledger walk measured 6.3x-214x slower; CHANGES.md PR 2).

// bench4k builds a balanced 4096-grid level 0 over 128 processors.
func bench4k() (*machine.System, *amr.Hierarchy) {
	sys := machine.WanPair(64, nil) // 64+64 procs, 2 groups
	h := amr.New(geom.UnitCube(64), 2, 1, 1, false, "q")
	boxes := geom.BoxList{h.Domain}.SplitEvenly(4096)
	for i, bx := range boxes {
		h.AddGrid(0, bx, i%sys.NumProcs(), amr.NoGrid)
	}
	return sys, h
}

// BenchmarkDecisionGainLedger measures the engine's per-decision Gain
// path with the ledger: an O(procs) snapshot of per-processor level
// work feeds the recorder's incremental Eq. 2 aggregates.
func BenchmarkDecisionGainLedger(b *testing.B) {
	sys, h := bench4k()
	led := load.NewLedger(sys, h)
	h.SetListener(led)
	rec := load.NewRecorder(sys, h.MaxLevel)
	rec.SetIntervalTime(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < sys.NumProcs(); p++ {
			rec.RecordLevelWork(p, 0, led.ProcCells(0, p))
		}
		if g := rec.Gain(); g < 0 {
			b.Fatal("negative gain")
		}
	}
}

// BenchmarkDecisionGroupWorksLedger measures the Eq. 2/3 group-work
// table through the recorder's incremental aggregates.
func BenchmarkDecisionGroupWorksLedger(b *testing.B) {
	sys, h := bench4k()
	rec := newRecorder(sys, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		works := rec.GroupWorks()
		if len(works) != sys.NumGroups() {
			b.Fatal("bad group works")
		}
	}
}

// BenchmarkDecisionBalanceOverLedger measures the local phase's setup
// cost on an already balanced 4k-grid level with the ledger supplying
// the load maps and owned-grid lists.
func BenchmarkDecisionBalanceOverLedger(b *testing.B) {
	sys, h := bench4k()
	ctx := newContext(sys, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if migs := parallelDLB.LocalBalance(ctx, 0); len(migs) != 0 {
			b.Fatal("balanced level must not migrate")
		}
	}
}

// BenchmarkDecisionGlobalCheckLedger measures the full distributed
// global-phase decision (trigger check through gain/cost, no
// redistribution on a balanced system) with ledger-backed aggregates.
func BenchmarkDecisionGlobalCheckLedger(b *testing.B) {
	sys, h := bench4k()
	ctx := newContext(sys, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := distributedDLB.GlobalBalance(ctx); d.Invoked {
			b.Fatal("balanced system must not redistribute")
		}
	}
}

// --- fast data path: cached ghost-exchange plans vs the O(grids²) scan ---
//
// Each pair measures one step-path operation once through the cached
// data-motion plan (steady state: the plan is built before the timer
// starts and reused, exactly as in a run between regrids) and once
// through the original scan that rediscovered every overlap per step.

// benchFillHierarchy builds a data-carrying level 0 of 512 grids
// (64³ domain split 8×8×8) with a worker pool attached.
func benchFillHierarchy(pool *solver.Pool) *amr.Hierarchy {
	h := amr.New(geom.UnitCube(64), 2, 0, 1, true, "q")
	h.SetPool(pool)
	boxes := geom.BoxList{h.Domain}.SplitEvenly(512)
	boxes.SortByLo()
	for i, bx := range boxes {
		g := h.AddGrid(0, bx, i%8, amr.NoGrid)
		g.Patch.FillFunc("q", func(c geom.Index) float64 { return float64(c[0] + 64*c[1]) })
	}
	return h
}

// BenchmarkGhostFillPlanned measures the per-step ghost fill through
// the cached plan, pool-parallel over destination grids.
func BenchmarkGhostFillPlanned(b *testing.B) {
	h := benchFillHierarchy(solver.NewPool(0))
	h.FillGhostsData(0) // build the plan outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FillGhostsData(0)
	}
}

// BenchmarkGhostFillScan is the pre-plan baseline: every step
// re-derives sibling overlaps by scanning all grid pairs.
func BenchmarkGhostFillScan(b *testing.B) {
	h := benchFillHierarchy(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FillGhostsScan(0)
	}
}

// BenchmarkFineLevelGhostFill measures the planned ghost fill of a fine
// level: 64 level-1 grids tile the refined middle of a 64³ domain under
// a level-0 cover of 64 grids, so a fine grid's ghost shell comes from
// siblings where the tiles meet and is prolonged from level 0 only on
// the tiled block's outer faces.
func BenchmarkFineLevelGhostFill(b *testing.B) {
	h := amr.New(geom.UnitCube(64), 2, 1, 1, true, "q", "rho")
	h.SetPool(solver.NewPool(0))
	coarse := geom.BoxList{h.Domain}.SplitEvenly(64)
	coarse.SortByLo()
	for i, bx := range coarse {
		g := h.AddGrid(0, bx, i%8, amr.NoGrid)
		g.Patch.FillFunc("q", func(c geom.Index) float64 { return float64(c[0] + 64*c[1]) })
	}
	middle := geom.BoxFromShape(geom.Index{16, 16, 16}, geom.Index{32, 32, 32})
	for _, p := range h.Grids(0) {
		piece := p.Box.Intersect(middle)
		if piece.Empty() {
			continue
		}
		tiles := geom.BoxList{piece.Refine(2)}.SplitEvenly(8)
		tiles.SortByLo()
		for i, bx := range tiles {
			g := h.AddGrid(1, bx, (p.Owner+i)%8, p.ID)
			g.Patch.FillFunc("q", func(c geom.Index) float64 { return float64(c[2] - c[1]) })
		}
	}
	if n := len(h.Grids(1)); n != 64 {
		b.Fatalf("level 1 holds %d grids, want 64", n)
	}
	h.FillGhostsData(1) // build the plan outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FillGhostsData(1)
	}
}

// benchRestrictHierarchy builds a two-level hierarchy: 64 coarse
// grids, 512 fine grids tiling the whole refined domain.
func benchRestrictHierarchy() *amr.Hierarchy {
	h := amr.New(geom.UnitCube(64), 2, 1, 1, true, "q")
	coarse := geom.BoxList{h.Domain}.SplitEvenly(64)
	coarse.SortByLo()
	for i, bx := range coarse {
		g := h.AddGrid(0, bx, i%8, amr.NoGrid)
		g.Patch.FillFunc("q", func(c geom.Index) float64 { return float64(c[2]) })
	}
	fine := geom.BoxList{h.Domain.Refine(2)}.SplitEvenly(512)
	fine.SortByLo()
	for i, bx := range fine {
		var parent *amr.Grid
		cb := bx.Coarsen(2)
		for _, p := range h.Grids(0) {
			if p.Box.ContainsBox(cb) {
				parent = p
				break
			}
		}
		g := h.AddGrid(1, bx, i%8, parent.ID)
		g.Patch.FillFunc("q", func(c geom.Index) float64 { return float64(c[0] - c[1]) })
	}
	return h
}

// BenchmarkRestrictPlanned measures fine→coarse restriction through
// the cached grouped-by-parent plan.
func BenchmarkRestrictPlanned(b *testing.B) {
	h := benchRestrictHierarchy()
	h.SetPool(solver.NewPool(0))
	h.RestrictData(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.RestrictData(1)
	}
}

// BenchmarkRestrictScan is the per-grid walk baseline.
func BenchmarkRestrictScan(b *testing.B) {
	h := benchRestrictHierarchy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.RestrictDataScan(1)
	}
}

// --- kernel step: row loops at the sizes the hierarchies hold ---

// kernelBenchShapes are the patch interiors the kernel benchmarks time:
// the small grids the hierarchies actually hold, whose 4- to 8-cell
// rows expose per-row overhead, next to a 32³ patch whose long rows
// hide it.
var kernelBenchShapes = []geom.Index{{4, 6, 8}, {8, 8, 8}, {32, 32, 32}}

// benchKernelStep times one Step per iteration on a patch of every
// kernelBenchShapes interior with one ghost cell, filled by init.
func benchKernelStep(b *testing.B, k solver.Kernel, init func(geom.Index) float64) {
	for _, s := range kernelBenchShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			box := geom.Box{Hi: s.Add(geom.Index{-1, -1, -1})}
			p := grid.NewPatch(box, 0, 1, solver.FieldQ)
			p.FillFunc(solver.FieldQ, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step(p, 0.01, 1.0/32)
			}
		})
	}
}

// BenchmarkKernelStepAdvection measures the upwind step (row loops,
// pooled scratch).
func BenchmarkKernelStepAdvection(b *testing.B) {
	benchKernelStep(b, solver.Advection3D{Vel: [3]float64{1, 0.5, 0.25}},
		func(i geom.Index) float64 { return float64(i[0]) })
}

// BenchmarkKernelStepBurgers measures the Godunov step with pooled
// flux planes, updated in place.
func BenchmarkKernelStepBurgers(b *testing.B) {
	benchKernelStep(b, solver.Burgers3D{},
		func(i geom.Index) float64 { return float64(i[0]%5) * 0.2 })
}

// --- regrid: pool-parallel vs sequential child initialisation ---

// benchRegrid runs one RegridAll of the shock driver on a fresh
// data-carrying hierarchy per iteration.
func benchRegrid(b *testing.B, pool *solver.Pool) {
	s := workload.NewShockPool3D(32, 2)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := amr.New(geom.UnitCube(32), 2, 2, 1, true, "q")
		h.SetPool(pool)
		g := h.AddGrid(0, h.Domain, 0, amr.NoGrid)
		g.Patch.FillFunc("q", func(c geom.Index) float64 { return float64(c[0] + c[1] + c[2]) })
		b.StartTimer()
		n := h.RegridAll(0, func(level int, f *cluster.FlagField) {
			s.Flag(level, 0.3, f)
		}, amr.DefaultRegridParams(), nil)
		if n == 0 {
			b.Fatal("regrid created nothing")
		}
	}
}

// amr64BenchHierarchy tiles a plan-only 64³ domain into 64 level-0
// grids on 8 processors, two fine levels allowed; regrid rebuilds the
// fine levels from the AMR64 driver's flags at t = 0.5 and returns the
// number of grids created.
func amr64BenchHierarchy() (h *amr.Hierarchy, regrid func() int) {
	a := workload.NewAMR64(64, 2, 1)
	h = amr.New(geom.UnitCube(64), 2, 2, 1, false, "q")
	for i, bx := range (geom.BoxList{h.Domain}).SplitEvenly(64) {
		h.AddGrid(0, bx, i%8, amr.NoGrid)
	}
	return h, func() int {
		return h.RegridAll(0, func(level int, f *cluster.FlagField) {
			a.Flag(level, 0.5, f)
		}, amr.DefaultRegridParams(), nil)
	}
}

// BenchmarkRegridAll measures the whole regrid pipeline — flag, dilate,
// cluster, create children, initialise their data — plan-only on AMR64
// at 64³ and with field data on ShockPool3D at 32³.
func BenchmarkRegridAll(b *testing.B) {
	b.Run("plan-only/AMR64-64", func(b *testing.B) {
		_, regrid := amr64BenchHierarchy()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if regrid() == 0 {
				b.Fatal("regrid created nothing")
			}
		}
	})
	b.Run("data/ShockPool3D-32", func(b *testing.B) {
		b.ReportAllocs()
		benchRegrid(b, nil)
	})
}

// BenchmarkRegridParallel initialises new children over all cores.
func BenchmarkRegridParallel(b *testing.B) { benchRegrid(b, solver.NewPool(0)) }

// BenchmarkRegridSequential is the one-goroutine baseline.
func BenchmarkRegridSequential(b *testing.B) { benchRegrid(b, nil) }

// planBenchHierarchy tiles the 64^3 domain into n level-0 grids for
// the structural plan-path benchmarks.
func planBenchHierarchy(n int) *amr.Hierarchy {
	h := amr.New(geom.UnitCube(64), 2, 0, 1, false, "q")
	for i, bx := range (geom.BoxList{h.Domain}).SplitEvenly(n) {
		h.AddGrid(0, bx, i%8, amr.NoGrid)
	}
	return h
}

// benchGhostPlanSizes are the level populations of the indexed-vs-scan
// plan pair (the paper-scale regime where the O(n²) scan dominated
// regrid cost).
var benchGhostPlanSizes = []int{4096, 16384}

// BenchmarkGhostPlanIndexed measures from-scratch ghost-plan
// construction through the spatial index at 4096 and 16384 level-0
// grids, and on level 2 of a regridded AMR64 hierarchy at 64³ — level 0
// has no coarse level, so only a fine level reaches the prolongation
// remainder. At 4096 grids, manygrids' level 0, it also plans on pools
// of one and two workers.
func BenchmarkGhostPlanIndexed(b *testing.B) {
	run := func(name string, h *amr.Hierarchy, l int) {
		b.Run(name, func(b *testing.B) {
			h.GhostPlan(l, false) // warm the index and the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if plan := h.GhostPlan(l, false); len(plan) == 0 {
					b.Fatal("no messages")
				}
			}
		})
	}
	for _, n := range benchGhostPlanSizes {
		run(fmt.Sprintf("grids%d", n), planBenchHierarchy(n), 0)
	}
	for _, w := range []int{1, 2} {
		h := planBenchHierarchy(4096)
		h.SetPool(solver.NewPool(w))
		run(fmt.Sprintf("grids4096/pool%d", w), h, 0)
	}
	h, regrid := amr64BenchHierarchy()
	regrid()
	run("AMR64-64-level2", h, 2)
}

// BenchmarkParticleStep measures one leapfrog push of AMR64's 2048
// particles on pools of one and two workers.
func BenchmarkParticleStep(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("pool%d", w), func(b *testing.B) {
			ps := workload.NewAMR64(64, 2, 42).Particles()
			pool := solver.NewPool(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps.Step(0.01, pool)
			}
		})
	}
}

// BenchmarkGhostPlanScan is the retained O(n²) baseline of the pair.
func BenchmarkGhostPlanScan(b *testing.B) {
	for _, n := range benchGhostPlanSizes {
		b.Run(fmt.Sprintf("grids%d", n), func(b *testing.B) {
			h := planBenchHierarchy(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if plan := h.GhostPlanScan(0); len(plan) == 0 {
					b.Fatal("no messages")
				}
			}
		})
	}
}

// BenchmarkReplanAfterMutation measures what one localized structural
// mutation (a migration-style remove/re-add) costs the next plan
// serve at 4096 level-0 grids: the level's generation moved, so its
// index and its cached plan are rebuilt whole — an indexed build,
// ≈ 29 ms when this landed (37 ms in the retired BENCH_plan.json's
// numbers), where PR 9's dirty-region patch cost 1.3 ms and the O(n²)
// scan 633 ms. The price is paid because nothing buys the patch: the
// engine's only localized mutation is a global redistribution's one
// SplitGrid (0–3 per run), and over the six bench/ workloads the patch
// path took 0–32 % of the re-plans and reused 0–6.7 % of the
// destinations planned (CHANGES.md, PR 19).
func BenchmarkReplanAfterMutation(b *testing.B) {
	const n = 4096
	h := planBenchHierarchy(n)
	h.GhostPlanCached(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := h.Grids(0)[i%n]
		box, owner := g.Box, g.Owner
		h.RemoveGrid(g.ID)
		h.AddGrid(0, box, owner, amr.NoGrid)
		if plan := h.GhostPlanCached(0); len(plan) == 0 {
			b.Fatal("no messages")
		}
	}
}

// --- grid-count scaling sweep (EXPERIMENTS.md, "Scaling in grid count") ---
//
// manygrids' run at 8 steps, its level-0 population swept ×4 twice.
// Every structural layer is timed on the hierarchy that run ends with,
// so the growth exponent log₄(t16k / t4k) of each row says whether the
// layer costs the same per grid as the grid count grows.

var sweepGrids = []int{1024, 4096, 16384}

// sweepRunner is AMR64 at 64³ on a 2 × 32 LAN pair, 8 steps, a regrid
// every 4, with n level-0 grids.
func sweepRunner(n int) *engine.Runner {
	sys := machine.LanPair(32, nil)
	return engine.New(sys, workload.NewAMR64(64, 2, 1), engine.Options{
		Steps: 8, RegridInterval: 4, GridsPerProc: n / sys.NumProcs()})
}

// sweepSaved holds, per grid count, the checkpoint of the hierarchy the
// sweep's run ends with; the run is made once per count.
var sweepSaved = map[int][]byte{}

// sweepHierarchy loads a fresh copy of the hierarchy the sweep's run at
// n level-0 grids ends with, and returns it with its checkpoint.
func sweepHierarchy(b *testing.B, n int) (*amr.Hierarchy, []byte) {
	blob, ok := sweepSaved[n]
	if !ok {
		r := sweepRunner(n)
		r.Run()
		var buf bytes.Buffer
		if err := r.Hierarchy().Save(&buf); err != nil {
			b.Fatal(err)
		}
		blob = buf.Bytes()
		sweepSaved[n] = blob
	}
	h, err := amr.Load(bytes.NewReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	if got := len(h.Grids(0)); got != n {
		b.Fatalf("the run ended with %d level-0 grids, want %d", got, n)
	}
	return h, blob
}

// BenchmarkRunGrids measures the sweep's whole run, setup included.
func BenchmarkRunGrids(b *testing.B) {
	for _, n := range sweepGrids {
		b.Run(fmt.Sprintf("grids%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweepRunner(n).Run()
			}
		})
	}
}

// BenchmarkLoad measures amr.Load of the sweep's final hierarchy beside
// the Save that wrote it: a restore should cost a small multiple of
// the write at every grid count.
func BenchmarkLoad(b *testing.B) {
	for _, n := range sweepGrids {
		h, blob := sweepHierarchy(b, n)
		b.Run(fmt.Sprintf("grids%d/save", n), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := h.Save(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("grids%d/load", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := amr.Load(bytes.NewReader(blob)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGridScaling times the other structural layers of the sweep
// on its final hierarchy: the nesting check (index current), the ledger
// recompute, a level-0 ghost plan from scratch, a regrid of the fine
// levels, a global redistribution moving a quarter of level 0 across
// the pair, and the per-grid structural calls that still scan a whole
// level — Children of one level-0 grid and SplitGrid of one.
func BenchmarkGridScaling(b *testing.B) {
	sys := machine.LanPair(32, nil)
	flagger := workload.NewAMR64(64, 2, 1)
	for _, n := range sweepGrids {
		name := func(layer string) string { return fmt.Sprintf("%s/grids%d", layer, n) }
		h, _ := sweepHierarchy(b, n)
		b.Run(name("nesting"), func(b *testing.B) {
			h.CheckProperNesting()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.CheckProperNesting(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name("ledger-verify"), func(b *testing.B) {
			led := load.NewLedger(sys, h)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := led.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name("ghost-plan"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.GhostPlan(0, false)
			}
		})
		b.Run(name("children"), func(b *testing.B) {
			l0 := h.Grids(0)
			for i := 0; i < b.N; i++ {
				h.Children(l0[i%n])
			}
		})
		b.Run(name("regrid"), func(b *testing.B) {
			h, _ := sweepHierarchy(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.RegridAll(0, func(level int, f *cluster.FlagField) {
					flagger.Flag(level, 0.5, f)
				}, amr.DefaultRegridParams(), nil)
			}
		})
		b.Run(name("split"), func(b *testing.B) {
			h, _ := sweepHierarchy(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := h.Grids(0)[i%n]
				d := g.Box.Shape().MaxDim()
				if g.Box.Shape()[d] < 2 {
					continue
				}
				h.SplitGrid(g, d, g.Box.Lo[d]+g.Box.Shape()[d]/2)
			}
		})
		b.Run(name("global-balance"), func(b *testing.B) {
			moved := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, _ := sweepHierarchy(b, n)
				// Group 0 takes the first three quarters of level 0,
				// subtrees and all; group 1 keeps the rest.
				per := sys.NumProcs() / 2
				for k, g := range h.Grids(0) {
					p := per + k%per
					if k < 3*n/4 {
						p = k % per
					}
					setSubtreeOwner(h, g, p)
				}
				ctx := newContext(sys, h)
				b.StartTimer()
				d := distributedDLB.GlobalBalance(ctx)
				if !d.Invoked {
					b.Fatal("an imbalanced pair must redistribute")
				}
				moved += len(d.Migrations)
			}
			b.ReportMetric(float64(moved)/float64(b.N), "migrations/op")
		})
	}
}

// setSubtreeOwner gives g and everything under it to processor p.
func setSubtreeOwner(h *amr.Hierarchy, g *amr.Grid, p int) {
	h.SetOwner(g, p)
	for _, c := range h.Children(g) {
		setSubtreeOwner(h, c, p)
	}
}
