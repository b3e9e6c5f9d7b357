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
