// Package load implements the paper's workload bookkeeping and the
// heuristic gain/cost evaluation for global redistribution
// (Section 4.2–4.3):
//
//	Cost = (α + β·W) + δ                               (Eq. 1)
//	W^i_group(t)  = Σ_{proc∈group} w^i_proc(t)          (Eq. 2)
//	W_group(t)    = Σ_i W^i_group(t) · N^i_iter(t)      (Eq. 3)
//	Gain = T(t) · (max W_group − min W_group)
//	       / (NumGroups · max W_group)                  (Eq. 4)
//
// Between two level-0 iterations the Recorder accumulates the
// per-processor workload at each level (w^i_proc), the iteration
// counts per finer level (N^i_iter), the wall time of the last level-0
// interval (T), and the computational overhead of the previous
// redistribution (δ).
package load

import (
	"fmt"

	"samrdlb/internal/machine"
)

// Recorder accumulates the performance data the DLB needs between two
// iterations at level 0.
type Recorder struct {
	sys      *machine.System
	maxLevel int
	// w[proc][level] is the workload (weighted cells advanced per
	// level iteration) processor proc held at that level during the
	// current interval; the paper's w^i_proc(t).
	w [][]float64
	// nIter[level] counts iterations of each level within the current
	// interval; the paper's N^i_iter(t).
	nIter []int
	// lastT is T(t): the execution time of the previous level-0
	// interval.
	lastT float64
	// delta is δ: the recorded computational overhead of the previous
	// global redistribution.
	delta float64
}

// NewRecorder returns a recorder for the system's processors and
// groups and levels 0..maxLevel.
func NewRecorder(sys *machine.System, maxLevel int) *Recorder {
	if maxLevel < 0 {
		panic("load.NewRecorder: bad shape")
	}
	r := &Recorder{
		sys:      sys,
		maxLevel: maxLevel,
		nIter:    make([]int, maxLevel+1),
		w:        make([][]float64, sys.NumProcs()),
	}
	for p := range r.w {
		r.w[p] = make([]float64, maxLevel+1)
	}
	return r
}

// ResetInterval clears the per-interval accumulators (called after
// each level-0 step, once the global-balance decision has been made).
func (r *Recorder) ResetInterval() {
	for p := range r.w {
		clear(r.w[p])
	}
	clear(r.nIter)
}

// RecordLevelWork stores the instantaneous per-level workload for a
// processor, overwriting the previous snapshot; w^i_proc(t) is the
// load the processor currently holds at level i. The workload unit is
// arbitrary but must be consistent (the engine uses cells ×
// kernel-flops); Eqs. 2–4 use only ratios.
func (r *Recorder) RecordLevelWork(proc, level int, work float64) {
	if work < 0 {
		panic("load.RecordLevelWork: negative work")
	}
	r.w[proc][level] = work
}

// RecordIteration counts one iteration of the given level inside the
// current interval.
func (r *Recorder) RecordIteration(level int) {
	if level < 0 || level > r.maxLevel {
		panic(fmt.Sprintf("load.RecordIteration: level %d out of range", level))
	}
	r.nIter[level]++
}

// SetIntervalTime records T(t), the execution time of the last
// level-0 interval.
func (r *Recorder) SetIntervalTime(t float64) {
	if t < 0 {
		panic("load.SetIntervalTime: negative time")
	}
	r.lastT = t
}

// IntervalTime returns the recorded T(t).
func (r *Recorder) IntervalTime() float64 { return r.lastT }

// SetDelta records δ, the computational overhead observed during the
// most recent global redistribution (Section 4.2: "the scheme uses
// history information").
func (r *Recorder) SetDelta(d float64) {
	if d < 0 {
		panic("load.SetDelta: negative delta")
	}
	r.delta = d
}

// AddDelta accumulates extra overhead into δ — probe retries and
// backoff stalls are DLB overhead just like the redistribution
// rebuild, so a flaky network inflates the cost side of Eq. 1 until
// the next redistribution measures a fresh δ.
func (r *Recorder) AddDelta(d float64) {
	if d < 0 {
		panic("load.AddDelta: negative delta")
	}
	r.delta += d
}

// Delta returns the recorded δ.
func (r *Recorder) Delta() float64 { return r.delta }

// LevelGroupWork returns W^i_group(t) (Eq. 2): the sum of w^i_proc
// over the group's processors, taken when asked. The paper evaluates
// Eqs. 2–4 once per level-0 step, while w is written on every level
// iteration, so no per-group copy is kept.
func (r *Recorder) LevelGroupWork(group, level int) float64 {
	var sum float64
	for _, p := range r.sys.ProcsInGroup(group) {
		sum += r.w[p][level]
	}
	return sum
}

// GroupWork returns W_group(t) (Eq. 3): the group's per-level loads
// weighted by the number of iterations each level runs within one
// level-0 step.
func (r *Recorder) GroupWork(group int) float64 {
	var sum float64
	for l := 0; l <= r.maxLevel; l++ {
		sum += r.LevelGroupWork(group, l) * float64(max(r.nIter[l], 1))
	}
	return sum
}

// GroupWorks returns W_group for every group.
func (r *Recorder) GroupWorks() []float64 {
	out := make([]float64, r.sys.NumGroups())
	for g := range out {
		out[g] = r.GroupWork(g)
	}
	return out
}

// Gain evaluates Eq. 4: the estimated reduction in execution time from
// removing the current inter-group imbalance. The estimate is
// deliberately conservative (the paper divides by NumGroups·max).
func (r *Recorder) Gain() float64 {
	works := r.GroupWorks()
	maxW, minW := works[0], works[0]
	for _, w := range works[1:] {
		if w > maxW {
			maxW = w
		}
		if w < minW {
			minW = w
		}
	}
	if maxW <= 0 {
		return 0
	}
	return r.lastT * (maxW - minW) / (float64(len(works)) * maxW)
}

// ImbalanceRatio returns max/min of the groups' performance-normalised
// loads (W_group divided by the group's aggregate performance weight).
// A ratio of 1 is perfect balance. Groups with zero load make the
// ratio +Inf unless every group is empty, which returns 1.
func (r *Recorder) ImbalanceRatio() float64 {
	works := r.GroupWorks()
	first := true
	var maxN, minN float64
	for g, w := range works {
		n := w / r.sys.GroupPerf(g)
		if first {
			maxN, minN = n, n
			first = false
			continue
		}
		if n > maxN {
			maxN = n
		}
		if n < minN {
			minN = n
		}
	}
	if maxN == 0 {
		return 1
	}
	if minN == 0 {
		return maxN * 1e18 // effectively infinite imbalance
	}
	return maxN / minN
}

// Cost evaluates Eq. 1: the time to redistribute W bytes over a link
// with measured parameters α and β, plus the recorded computational
// overhead δ.
func Cost(alpha, beta, bytes, delta float64) float64 {
	if bytes < 0 {
		panic("load.Cost: negative size")
	}
	return alpha + beta*bytes + delta
}
