package load

// ProcWork returns the total workload of a processor over all levels,
// weighted by the interval's iteration counts (the per-processor
// analogue of Eq. 3): the per-processor reference the group-aggregate
// property is checked against.
func (r *Recorder) ProcWork(proc int) float64 {
	var sum float64
	for l := 0; l <= r.maxLevel; l++ {
		sum += r.w[proc][l] * float64(max(r.nIter[l], 1))
	}
	return sum
}

// LevelWork returns w^i_proc(t) as last recorded: what the engine-level
// mirror test replays into its reference.
func (r *Recorder) LevelWork(proc, level int) float64 { return r.w[proc][level] }
