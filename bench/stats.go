package main

import (
	"math"
	"slices"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// vals by the same rule as Python's statistics.quantiles(vals, n=4)
// (the "exclusive" method the PR driver uses), so the spreads this
// benchmark prints are the spreads the driver computes. A single
// sample is its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, 1-based
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), median(s), at(3)
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the reporting rule "the highest percentile
// that has at least ten samples beyond it": it returns that whole
// percentile p (at most 99) and its nearest-rank value. With fewer
// than 20 samples no percentile above the median qualifies and the
// median is returned as p = 50.
func tailPercentile(vals []float64) (p int, v float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	for p = 99; p > 50; p-- {
		rank := (p*n + 99) / 100 // nearest rank, 1-based: ceil(p*n/100)
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}

// summary is a metric's distribution over the reps of one workload.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(vals []float64, unit string) summary {
	q1, med, q3 := quartiles(vals)
	s := summary{Median: med, Q1: q1, Q3: q3, N: len(vals), Unit: unit}
	if len(vals) > 0 {
		s.Min, s.Max = slices.Min(vals), slices.Max(vals)
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
