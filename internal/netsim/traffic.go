// Package netsim models the networks of a distributed system: links
// characterised by latency α and transfer rate β (seconds per byte),
// following the paper's communication model Tcomm = α + β·L, with
// shared links carrying time-varying background traffic that reduces
// the effective bandwidth. It also implements the paper's two-message
// probing that estimates α and β at runtime (Section 4.2).
//
// The modelled links are the sole timing authority for every run:
// when the engine carries rank messages over a real socket transport
// (engine.Options.Transport = "tcp"), the wire moves payload bytes
// but contributes nothing to virtual time — all communication charges
// still come from these links.
package netsim

import (
	"math"
	"math/rand"
	"sort"
)

// TrafficModel describes the background load on a shared link as a
// function of time: Load(t) is the fraction of the nominal bandwidth
// consumed by other users, in [0, MaxLoad] with MaxLoad < 1.
type TrafficModel interface {
	// Load returns the background-load fraction at time t (seconds).
	Load(t float64) float64
}

// maxLoad clamps any model's output so a link never loses all its
// bandwidth (the paper's networks are shared but never unusable).
const maxLoadClamp = 0.95

func clampLoad(l float64) float64 {
	if l < 0 {
		return 0
	}
	if l > maxLoadClamp {
		return maxLoadClamp
	}
	return l
}

// ConstantTraffic is a fixed background load (0 = dedicated link).
type ConstantTraffic struct{ Level float64 }

// Load implements TrafficModel.
func (c ConstantTraffic) Load(float64) float64 { return clampLoad(c.Level) }

// SinusoidTraffic oscillates around Mean with the given amplitude and
// period, modelling diurnal or periodic congestion patterns.
type SinusoidTraffic struct {
	Mean, Amp, Period, Phase float64
}

// Load implements TrafficModel.
func (s SinusoidTraffic) Load(t float64) float64 {
	if s.Period <= 0 {
		return clampLoad(s.Mean)
	}
	return clampLoad(s.Mean + s.Amp*math.Sin(2*math.Pi*t/s.Period+s.Phase))
}

// BurstyTraffic is a deterministic-given-seed two-state (on/off)
// Markov-like model: the link alternates between a quiet level and a
// busy level with pseudo-random dwell times. It reproduces the
// shared-WAN behaviour the paper observed on MREN ("periods of high
// traffic due to sharing of the networks or low traffic").
type BurstyTraffic struct {
	QuietLoad, BusyLoad float64
	MeanQuiet, MeanBusy float64 // mean dwell times, seconds
	Seed                int64
	transitions         []transition
	generatedUpTo       float64
	rng                 *rand.Rand
}

type transition struct {
	at   float64
	busy bool
}

// Load implements TrafficModel. The dwell sequence is generated
// lazily and memoised, so repeated queries at any time are consistent.
func (b *BurstyTraffic) Load(t float64) float64 {
	if t < 0 {
		t = 0
	}
	b.ensure(t)
	// Binary search for the state at time t.
	i := sort.Search(len(b.transitions), func(i int) bool { return b.transitions[i].at > t })
	if i == 0 {
		return clampLoad(b.QuietLoad)
	}
	if b.transitions[i-1].busy {
		return clampLoad(b.BusyLoad)
	}
	return clampLoad(b.QuietLoad)
}

func (b *BurstyTraffic) ensure(t float64) {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.Seed))
		b.transitions = []transition{{at: 0, busy: false}}
		b.generatedUpTo = 0
	}
	mq, mb := b.MeanQuiet, b.MeanBusy
	if mq <= 0 {
		mq = 10
	}
	if mb <= 0 {
		mb = 5
	}
	for b.generatedUpTo <= t {
		last := b.transitions[len(b.transitions)-1]
		var dwell float64
		if last.busy {
			dwell = b.rng.ExpFloat64() * mb
		} else {
			dwell = b.rng.ExpFloat64() * mq
		}
		if dwell < 1e-3 {
			dwell = 1e-3
		}
		next := transition{at: last.at + dwell, busy: !last.busy}
		b.transitions = append(b.transitions, next)
		b.generatedUpTo = next.at
	}
}

// RandomWalkTraffic performs a mean-reverting bounded random walk,
// sampled on a fixed grid and linearly interpolated, modelling slowly
// drifting background load.
type RandomWalkTraffic struct {
	Start, Step, Interval float64
	Seed                  int64
	samples               []float64
	rng                   *rand.Rand
}

// Load implements TrafficModel.
func (w *RandomWalkTraffic) Load(t float64) float64 {
	if t < 0 {
		t = 0
	}
	iv := w.Interval
	if iv <= 0 {
		iv = 1
	}
	idx := int(t / iv)
	w.ensure(idx + 1)
	frac := t/iv - float64(idx)
	v := w.samples[idx]*(1-frac) + w.samples[idx+1]*frac
	return clampLoad(v)
}

func (w *RandomWalkTraffic) ensure(n int) {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.Seed))
		w.samples = []float64{clampLoad(w.Start)}
	}
	step := w.Step
	if step <= 0 {
		step = 0.05
	}
	for len(w.samples) <= n {
		prev := w.samples[len(w.samples)-1]
		// Mean-revert toward Start with random perturbation.
		v := prev + 0.1*(w.Start-prev) + step*(2*w.rng.Float64()-1)
		w.samples = append(w.samples, clampLoad(v))
	}
}
