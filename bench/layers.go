package main

// inRunLayers turns the spans of the decorated engine runs into the
// in-run per-layer metrics. Times are summed over the runs given (one
// for the single-run workloads and paper-fig7, every decorated
// scenario run for campaign).
func inRunLayers(layers map[string]float64, rec *recorder, runs []engineRun) {
	ours := make(map[int32]bool, len(runs))
	var runWall float64
	var cells, levelSteps, kernelCells int64
	var localCalls, localHits, localMigs, globalEvals, globalRedists int
	for _, r := range runs {
		ours[r.tracer.run] = true
		runWall += r.wallS
		cells += r.cells
		levelSteps += r.steps
		kernelCells += r.tracer.kernelCells.Load()
		localCalls += r.tracer.localCalls
		localHits += r.tracer.localHits
		localMigs += r.tracer.localMigs
		globalEvals += r.result.GlobalEvals
		globalRedists += r.result.GlobalRedists
	}

	children := make(map[int32][]span)
	for _, s := range rec.spans {
		if ours[s.Run] && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durBy, selfBy, countBy := map[string]int64{}, map[string]int64{}, map[string]int{}
	var kernels []interval
	for i, s := range rec.spans {
		if !ours[s.Run] {
			continue
		}
		durBy[s.Name] += s.dur()
		countBy[s.Name]++
		switch s.Name {
		case spanRegrid, spanAdvance, spanTail:
			selfBy[s.Name] += selfTime(s, children[int32(i)])
		case spanKernel:
			kernels = append(kernels, interval{s.Start, s.End})
		}
	}

	layers["engine.regrid_span_s"] = seconds(durBy[spanRegrid])
	layers["engine.advance_span_s"] = seconds(durBy[spanAdvance])
	// Advance minus kernels and local balance: ghost fill, restriction,
	// plan refresh, message charging, flux registers, particle work.
	layers["engine.exchange_self_s"] = seconds(selfBy[spanAdvance])
	layers["engine.tail_self_s"] = seconds(selfBy[spanTail])
	layers["engine.level_steps"] = float64(levelSteps)
	// Regrid minus flagging, placement, ledger events and initial
	// conditions: clustering, flag buffering, child data init, plans.
	layers["amr.regrid_self_s"] = seconds(selfBy[spanRegrid])

	layers["solver.step_busy_s"] = seconds(durBy[spanKernel])
	layers["solver.step_cover_s"] = seconds(unionLen(kernels))
	layers["solver.step_calls"] = float64(countBy[spanKernel])
	layers["solver.cells_updated"] = float64(cells)
	if kernelCells > 0 {
		layers["solver.ns_per_cell"] = float64(durBy[spanKernel]) / float64(kernelCells)
	}

	layers["workload.flag_s"] = seconds(durBy[spanFlag])
	layers["workload.flag_calls"] = float64(countBy[spanFlag])
	layers["workload.init_s"] = seconds(durBy[spanInit])

	layers["dlb.place_s"] = seconds(durBy[spanPlace])
	layers["dlb.place_calls"] = float64(countBy[spanPlace])
	layers["dlb.local_s"] = seconds(durBy[spanLocal])
	layers["dlb.local_calls"] = float64(localCalls)
	layers["dlb.local_migrations"] = float64(localMigs)
	layers["dlb.local_hit_ratio"] = ratio(float64(localHits), float64(localCalls))
	layers["dlb.global_s"] = seconds(durBy[spanGlobal])
	layers["dlb.global_evals"] = float64(globalEvals)
	layers["dlb.global_redists"] = float64(globalRedists)
	layers["dlb.global_hit_ratio"] = ratio(float64(globalRedists), float64(globalEvals))

	layers["load.ledger_event_s"] = seconds(durBy[spanLedger])
	layers["load.ledger_events"] = float64(countBy[spanLedger])

	// The phase spans partition each level-0 step, so whatever they do
	// not cover is Run's entry and exit; acceptance wants >= 0.95.
	phases := durBy[spanRegrid] + durBy[spanAdvance] + durBy[spanGlobal] + durBy[spanTail]
	layers["bench.span_coverage"] = ratio(seconds(phases), runWall)
	if runWall > 0 {
		layers["engine.cell_updates_per_s"] = float64(cells) / runWall
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
