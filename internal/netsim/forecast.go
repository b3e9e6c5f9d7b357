package netsim

import (
	"math"
	"sort"
)

// This file implements Network Weather Service-style forecasting
// (Wolski, "Dynamically Forecasting Network Performance using the
// Network Weather Service", 1996) — the integration the paper names
// as future work: "we will connect this proposed DLB scheme with
// tools such as the NWS service to get more accurate evaluation of
// underlying networks."
//
// NWS maintains a family of simple predictors over the measurement
// history and, for each new forecast, selects the predictor with the
// lowest accumulated error so far. A Series tracks one scalar (e.g. a
// link's measured β); a LinkForecast pairs two Series for α and β;
// a ForecastSet keys them by link.

// predictor is one forecasting strategy over a history of values.
type predictor interface {
	name() string
	predict(hist []float64) float64
}

// lastValue predicts the most recent measurement.
type lastValue struct{}

func (lastValue) name() string { return "last" }
func (lastValue) predict(h []float64) float64 {
	return h[len(h)-1]
}

// runningMean predicts the mean of the whole history.
type runningMean struct{}

func (runningMean) name() string { return "mean" }
func (runningMean) predict(h []float64) float64 {
	var s float64
	for _, v := range h {
		s += v
	}
	return s / float64(len(h))
}

// slidingMean predicts the mean of the last k measurements.
type slidingMean struct{ k int }

func (p slidingMean) name() string { return "sliding-mean" }
func (p slidingMean) predict(h []float64) float64 {
	start := len(h) - p.k
	if start < 0 {
		start = 0
	}
	var s float64
	for _, v := range h[start:] {
		s += v
	}
	return s / float64(len(h)-start)
}

// slidingMedian predicts the median of the last k measurements —
// robust against the bursty outliers shared networks produce.
type slidingMedian struct{ k int }

func (p slidingMedian) name() string { return "sliding-median" }
func (p slidingMedian) predict(h []float64) float64 {
	start := len(h) - p.k
	if start < 0 {
		start = 0
	}
	w := append([]float64(nil), h[start:]...)
	sort.Float64s(w)
	n := len(w)
	if n%2 == 1 {
		return w[n/2]
	}
	return (w[n/2-1] + w[n/2]) / 2
}

// expSmooth predicts with exponential smoothing at gain g.
type expSmooth struct{ g float64 }

func (p expSmooth) name() string { return "exp-smooth" }
func (p expSmooth) predict(h []float64) float64 {
	s := h[0]
	for _, v := range h[1:] {
		s = p.g*v + (1-p.g)*s
	}
	return s
}

// Series is an NWS-style forecaster for one scalar measurement
// stream: it runs a family of predictors in parallel, scores each by
// its accumulated absolute error, and forecasts with the current
// best.
type Series struct {
	hist    []float64
	preds   []predictor
	errs    []float64
	lastFor []float64
	maxHist int
}

// NewSeries returns a forecaster with the standard NWS predictor
// family. History is bounded to maxHist measurements (0 = 64).
func NewSeries(maxHist int) *Series {
	if maxHist <= 0 {
		maxHist = 64
	}
	// Robust predictors lead the list: bestIdx breaks ties toward the
	// earliest entry, so when the history has been too uneventful to
	// separate the predictors, outlier-resistant forecasts win.
	preds := []predictor{
		slidingMedian{k: 5},
		slidingMedian{k: 15},
		slidingMean{k: 5},
		slidingMean{k: 15},
		expSmooth{g: 0.3},
		expSmooth{g: 0.7},
		runningMean{},
		lastValue{},
	}
	return &Series{
		preds:   preds,
		errs:    make([]float64, len(preds)),
		lastFor: make([]float64, len(preds)),
		maxHist: maxHist,
	}
}

// Record adds a measurement: each predictor's standing forecast is
// scored against it, then forecasts are refreshed.
func (s *Series) Record(v float64) {
	if len(s.hist) > 0 {
		for i := range s.preds {
			s.errs[i] += math.Abs(v - s.lastFor[i])
		}
	}
	s.hist = append(s.hist, v)
	if len(s.hist) > s.maxHist {
		s.hist = s.hist[len(s.hist)-s.maxHist:]
	}
	for i, p := range s.preds {
		s.lastFor[i] = p.predict(s.hist)
	}
}

// Forecast returns the current best predictor's forecast; ok is false
// until at least one measurement exists.
func (s *Series) Forecast() (v float64, ok bool) {
	if len(s.hist) == 0 {
		return 0, false
	}
	return s.lastFor[s.bestIdx()], true
}

// Best returns the name of the currently winning predictor.
func (s *Series) Best() string {
	if len(s.hist) == 0 {
		return ""
	}
	return s.preds[s.bestIdx()].name()
}

func (s *Series) bestIdx() int {
	best := 0
	for i := 1; i < len(s.errs); i++ {
		if s.errs[i] < s.errs[best] {
			best = i
		}
	}
	return best
}

// LinkForecast forecasts a link's α and β from probe history.
type LinkForecast struct {
	Alpha, Beta *Series
}

// NewLinkForecast returns an empty link forecaster.
func NewLinkForecast() *LinkForecast {
	return &LinkForecast{Alpha: NewSeries(0), Beta: NewSeries(0)}
}

// Record feeds one probe measurement.
func (lf *LinkForecast) Record(alpha, beta float64) {
	lf.Alpha.Record(alpha)
	lf.Beta.Record(beta)
}

// Forecast returns the predicted (α, β); ok is false with no history.
func (lf *LinkForecast) Forecast() (alpha, beta float64, ok bool) {
	a, okA := lf.Alpha.Forecast()
	b, okB := lf.Beta.Forecast()
	return a, b, okA && okB
}

// ForecastSet holds one LinkForecast per link.
type ForecastSet struct {
	byLink map[*Link]*LinkForecast
}

// NewForecastSet returns an empty set.
func NewForecastSet() *ForecastSet {
	return &ForecastSet{byLink: make(map[*Link]*LinkForecast)}
}

// For returns (creating if needed) the forecaster for a link.
func (fs *ForecastSet) For(l *Link) *LinkForecast {
	lf := fs.byLink[l]
	if lf == nil {
		lf = NewLinkForecast()
		fs.byLink[l] = lf
	}
	return lf
}
