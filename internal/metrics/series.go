package metrics

import (
	"fmt"
	"math"
	"strings"
)

// History collects named per-step time series from a run — cell
// counts, imbalance, step times — for observability beyond the final
// totals. A nil History is valid and records nothing.
type History struct {
	order  []string
	series map[string][]float64
}

// NewHistory returns an empty collector.
func NewHistory() *History {
	return &History{series: make(map[string][]float64)}
}

// Record appends a value to the named series (no-op on nil receiver).
func (h *History) Record(name string, v float64) {
	if h == nil {
		return
	}
	if _, ok := h.series[name]; !ok {
		h.order = append(h.order, name)
	}
	h.series[name] = append(h.series[name], v)
}

// Get returns the named series (nil when absent).
func (h *History) Get(name string) []float64 {
	if h == nil {
		return nil
	}
	return h.series[name]
}

// Mean returns the arithmetic mean of vals (0 for an empty slice).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// sparkRunes render a series as a compact terminal sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series scaled between its min and max.
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// String renders every series with its range and a sparkline.
func (h *History) String() string {
	if h == nil || len(h.order) == 0 {
		return ""
	}
	var b strings.Builder
	width := 0
	for _, n := range h.order {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range h.order {
		vals := h.series[n]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Fprintf(&b, "%-*s  %s  [%.4g .. %.4g]\n", width, n, Sparkline(vals), lo, hi)
	}
	return b.String()
}
