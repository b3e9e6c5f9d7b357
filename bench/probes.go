package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"samrdlb/internal/amr"
	"samrdlb/internal/ckpt"
	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/mpx"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// Layer probes time each layer's public functions directly, on the
// hierarchy the traced run ended with (so grid counts and shapes are
// the workload's own) or, for the layers that take no hierarchy, on a
// fixed 32-cubed patch. Each probe repeats up to `calls` times and
// reports the median. Probes that need field data report 0 on a plan-only
// hierarchy. They run after every output check, because several of
// them mutate the hierarchy.

// probeBudget caps the time one probe spends repeating itself: a probe
// whose single call already takes that long is measured well enough.
const probeBudget = time.Second

// medianSeconds is the median wall time of up to calls runs of fn,
// fewer once they have used up probeBudget.
func medianSeconds(calls int, fn func()) float64 {
	var times []float64
	begin := time.Now()
	for i := 0; i < calls && (i == 0 || time.Since(begin) < probeBudget); i++ {
		start := time.Now()
		fn()
		times = append(times, time.Since(start).Seconds())
	}
	return median(times)
}

// mallocsOf counts the heap allocations of one run of fn.
func mallocsOf(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// runProbes fills in every probe metric. A probe that fails (the
// checkpoint store, the socket pair) is reported on stderr and leaves
// its metrics at 0; probes never fail an op.
func runProbes(layers map[string]float64, run engineRun, seed int64, calls int) {
	r := run.runner
	h := r.Hierarchy()
	h.SetListener(r.Ledger()) // drop the span decorator: probes time the layer alone
	ctx := r.Context()
	bal := run.cfg.opt.Balancer
	driver := run.cfg.driver
	levels := func(from int, fn func(l int)) {
		for l := from; l <= h.MaxLevel; l++ {
			if len(h.Grids(l)) > 0 {
				fn(l)
			}
		}
	}
	finest := 0
	levels(0, func(l int) { finest = l })

	// dlb and load, first: the run ends balanced, later probes regrid.
	if finest > 0 {
		bal.LocalBalance(ctx, finest)
		layers["dlb.local_balanced_s"] = medianSeconds(calls, func() { bal.LocalBalance(ctx, finest) })
		layers["dlb.local_balanced_allocs"] = mallocsOf(func() { bal.LocalBalance(ctx, finest) })
	}
	layers["load.ledger_rebuild_s"] = medianSeconds(calls, r.Ledger().Rebuild)

	// amr data motion.
	if h.WithData {
		layers["amr.fill_sweep_s"] = medianSeconds(calls, func() { levels(0, h.FillGhostsData) })
		layers["amr.restrict_sweep_s"] = medianSeconds(calls, func() { levels(1, h.RestrictData) })
		if finest > 0 {
			layers["amr.reflux_register_s"] = medianSeconds(calls, func() { refluxCycle(h, finest) })
		}
	}
	var planMsgs int
	var fillBytes int64
	layers["amr.plan_build_s"] = medianSeconds(calls, func() {
		planMsgs, fillBytes = 0, 0
		levels(0, func(l int) {
			for _, m := range h.GhostPlan(l, false) {
				planMsgs++
				fillBytes += m.Bytes
			}
		})
	})
	layers["amr.plan_msgs"] = float64(planMsgs)
	layers["amr.fill_bytes"] = float64(fillBytes) // computed from the plan, not measured

	// Serialisation and the durable store.
	var buf bytes.Buffer
	layers["amr.save_s"] = medianSeconds(calls, func() {
		buf.Reset()
		if err := h.Save(&buf); err != nil {
			panic(err)
		}
	})
	layers["amr.save_bytes"] = float64(buf.Len())
	layers["amr.load_s"] = medianSeconds(calls, func() {
		if _, err := amr.Load(bytes.NewReader(buf.Bytes())); err != nil {
			panic(err)
		}
	})
	if err := ckptProbe(layers, buf.Bytes(), calls); err != nil {
		fmt.Fprintln(os.Stderr, "bench: ckpt probe:", err)
	}

	// cluster: Berger–Rigoutsos on the driver's flags at end time, on
	// every level that refines.
	var boxes, flagged, covered int
	var clusterS float64
	levels(0, func(l int) {
		if l == h.MaxLevel {
			return
		}
		f := h.FlagFieldFor(l)
		driver.Flag(l, r.Time(), f)
		if f.Count() == 0 {
			return
		}
		var out geom.BoxList
		clusterS += medianSeconds(calls, func() { out = cluster.Cluster(f, cluster.DefaultParams()) })
		boxes += len(out)
		flagged += f.Count()
		for _, b := range out {
			covered += int(b.NumCells())
		}
	})
	layers["cluster.cluster_s"] = clusterS
	layers["cluster.boxes"] = float64(boxes)
	layers["cluster.efficiency"] = ratio(float64(flagged), float64(covered))

	// Plan patching: remove and re-add 1 % of the finest level's grids
	// (a structural change; owner changes dirty nothing), then ask for
	// the cached plan, which re-plans only the dirtied destinations.
	if grids := h.Grids(finest); len(grids) > 0 {
		h.GhostPlanCached(finest)
		n := max(1, len(grids)/100)
		layers["amr.plan_patch_s"] = medianSeconds(calls, func() {
			for i := 0; i < n; i++ {
				g := h.Grids(finest)[i]
				box, owner, parent := g.Box, g.Owner, g.Parent
				h.RemoveGrid(g.ID)
				h.AddGrid(finest, box, owner, parent)
			}
			h.GhostPlanCached(finest)
		})
	}

	// Whole regrid, last: it rebuilds every fine level.
	regrid := func() {
		h.RegridAll(0,
			func(l int, f *cluster.FlagField) { driver.Flag(l, r.Time(), f) },
			amr.DefaultRegridParams(),
			func(childBox geom.Box, parent *amr.Grid) int { return bal.PlaceChild(ctx, childBox, parent) })
	}
	layers["amr.regridall_s"] = medianSeconds(calls, regrid)
	layers["amr.regridall_allocs"] = mallocsOf(regrid)

	kernelProbes(layers, driver, h, seed, calls)
	if err := wireProbe(layers, calls); err != nil {
		fmt.Fprintln(os.Stderr, "bench: mpx probe:", err)
	}
}

// refluxCycle is one flux register's life on the finest level: build,
// feed every coarse and fine grid's fluxes, apply. The fluxes are
// zero, so the correction applied is zero.
func refluxCycle(h *amr.Hierarchy, fine int) {
	fr := amr.NewFluxRegister(h, fine)
	for _, g := range h.Grids(fine - 1) {
		fl := solver.NewFluxes(g.Box)
		fr.AddCoarse(g, fl)
		fl.Release()
	}
	for _, g := range h.Grids(fine) {
		fl := solver.NewFluxes(g.Box)
		fr.AddFine(g, fl)
		fl.Release()
	}
	fr.Apply()
}

// ckptProbe writes and restores the saved hierarchy through the
// durable store in a temporary directory. The times include fsync, so
// they depend on the disk under $TMPDIR.
func ckptProbe(layers map[string]float64, payload []byte, calls int) error {
	dir, err := os.MkdirTemp("", "samr-bench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := ckpt.Open(dir, 3)
	if err != nil {
		return err
	}
	seq := 0
	layers["ckpt.write_s"] = medianSeconds(calls, func() {
		if _, werr := st.Write(&ckpt.Meta{Step: seq}, payload, seq, 0); werr != nil {
			err = werr
		}
		seq++
	})
	layers["ckpt.restore_s"] = medianSeconds(calls, func() {
		if _, _, _, rerr := st.Restore(func(*ckpt.Meta, []byte) error { return nil }); rerr != nil {
			err = rerr
		}
	})
	return err
}

// kernelProbes times the three patch kernels on a 32-cubed patch and
// the particle census the engine takes once per level-0 grid.
func kernelProbes(layers map[string]float64, driver workload.Driver, h *amr.Hierarchy, seed int64, calls int) {
	const n = 32
	perCell := func(k solver.Kernel, init func(geom.Index) float64) float64 {
		p := grid.NewPatch(geom.UnitCube(n), 0, 1, k.Fields()...)
		for _, f := range k.Fields() {
			p.FillFunc(f, init)
		}
		k.Step(p, 0.01, 1.0/n)
		return 1e9 * medianSeconds(max(calls, 3), func() { k.Step(p, 0.01, 1.0/n) }) / (n * n * n)
	}
	layers["solver.advection_ns_per_cell"] = perCell(solver.Advection3D{Vel: [3]float64{1, 0.5, 0.25}},
		func(i geom.Index) float64 { return float64(i[0]) })
	layers["solver.burgers_ns_per_cell"] = perCell(solver.Burgers3D{},
		func(i geom.Index) float64 { return float64(i[0]%5) * 0.2 })
	layers["solver.gauss_seidel_ns_per_cell"] = perCell(solver.GaussSeidel{Sweeps: 2},
		func(i geom.Index) float64 { return float64(i[1]%3) * 0.1 })

	ps := driver.Particles()
	if ps == nil {
		ps = workload.NewAMR64(n, 2, seed).Particles()
	}
	dx0 := 1.0 / float64(h.Domain.Hi[0]+1)
	layers["solver.particle_count_s"] = medianSeconds(calls, func() {
		for _, g := range h.Grids(0) {
			var lo, hi [3]float64
			for d := 0; d < 3; d++ {
				lo[d] = float64(g.Box.Lo[d]) * dx0
				hi[d] = float64(g.Box.Hi[d]+1) * dx0
			}
			ps.CountInRegion(lo, hi)
		}
	})
}

// wireProbe bounces a 32 KiB message between two shard worlds over
// real localhost sockets — the path shock-wire's inter-group ghost
// exchange takes — and reports the one-way time per frame, the
// payload rate and the allocations per frame.
func wireProbe(layers map[string]float64, calls int) error {
	const words = 4096 // 32 KiB of float64
	trips := 40 * max(calls, 1)
	shardOf := func(rank int) int { return rank }
	var eps [2]*mpx.TCPEndpoint
	for i := range eps {
		ep, err := mpx.ListenTCP(i, "127.0.0.1:0", shardOf)
		if err != nil {
			return err
		}
		defer ep.Close()
		ep.SetWireTimeout(5 * time.Second)
		eps[i] = ep
	}
	if err := eps[0].Dial(1, eps[1].Addr()); err != nil {
		return err
	}
	var worlds [2]*mpx.World
	for i := range worlds {
		worlds[i] = mpx.NewShardWorld(2, shardOf, i, eps[i])
		eps[i].Bind(worlds[i])
	}
	payload := make([]float64, words)
	pingPong := func(n int) {
		var wg sync.WaitGroup
		for i := range worlds {
			wg.Add(1)
			go func(w *mpx.World) {
				defer wg.Done()
				w.Run(func(r *mpx.Rank) {
					for t := 0; t < n; t++ {
						if r.ID() == 0 {
							r.Send(1, 1, payload)
							r.Recv(1, 2)
						} else {
							r.Recv(0, 1)
							r.Send(0, 2, payload)
						}
					}
				})
			}(worlds[i])
		}
		wg.Wait()
	}
	pingPong(4) // connections and buffers warm
	var elapsed float64
	allocs := mallocsOf(func() {
		start := time.Now()
		pingPong(trips)
		elapsed = time.Since(start).Seconds()
	})
	frames := float64(2 * trips)
	layers["mpx.tcp_frame_us"] = 1e6 * elapsed / frames
	layers["mpx.tcp_mb_per_s"] = frames * words * 8 / 1e6 / elapsed
	layers["mpx.allocs_per_frame"] = allocs / frames
	return nil
}
