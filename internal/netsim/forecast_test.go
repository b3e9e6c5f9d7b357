package netsim

import (
	"math"
	"math/rand"
	"testing"
)

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(0)
	if _, ok := s.Forecast(); ok {
		t.Error("empty series must not forecast")
	}
	if s.Best() != "" || len(s.hist) != 0 {
		t.Error("empty series state wrong")
	}
}

func TestSeriesConstantIsExact(t *testing.T) {
	s := NewSeries(0)
	for i := 0; i < 20; i++ {
		s.Record(0.42)
	}
	v, ok := s.Forecast()
	if !ok || math.Abs(v-0.42) > 1e-12 {
		t.Errorf("constant forecast = %v", v)
	}
}

func TestSeriesTracksTrend(t *testing.T) {
	// A slowly rising series: the forecast must stay close to the
	// latest values, not the ancient ones.
	s := NewSeries(0)
	for i := 0; i < 50; i++ {
		s.Record(float64(i))
	}
	v, _ := s.Forecast()
	if v < 40 {
		t.Errorf("forecast %v lags a rising trend badly", v)
	}
}

func TestSeriesMedianWinsOnSpikyData(t *testing.T) {
	// Mostly 1.0 with occasional huge spikes: median-like predictors
	// should accumulate less error than last-value, and the combined
	// forecast should sit near 1, not near the spike.
	s := NewSeries(0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		v := 1.0 + 0.01*rng.NormFloat64()
		if i%17 == 0 {
			v = 25
		}
		s.Record(v)
	}
	// End right after a spike: a pure last-value forecaster would
	// predict ~25.
	s.Record(25)
	v, _ := s.Forecast()
	if v > 5 {
		t.Errorf("forecast %v dominated by spike; Best=%s", v, s.Best())
	}
}

func TestSeriesHistoryBounded(t *testing.T) {
	s := NewSeries(10)
	for i := 0; i < 100; i++ {
		s.Record(float64(i))
	}
	if len(s.hist) != 10 {
		t.Errorf("history len = %d, want 10", len(s.hist))
	}
}

func TestPredictorPrimitives(t *testing.T) {
	h := []float64{1, 2, 3, 4, 100}
	if got := (lastValue{}).predict(h); got != 100 {
		t.Errorf("last = %v", got)
	}
	if got := (runningMean{}).predict(h); math.Abs(got-22) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if got := (slidingMean{k: 2}).predict(h); math.Abs(got-52) > 1e-12 {
		t.Errorf("sliding mean = %v", got)
	}
	if got := (slidingMedian{k: 5}).predict(h); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := (slidingMedian{k: 4}).predict(h); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("even median = %v", got)
	}
	// Sliding windows larger than history degrade gracefully.
	if got := (slidingMean{k: 50}).predict(h); math.Abs(got-22) > 1e-12 {
		t.Errorf("oversized window = %v", got)
	}
	// Exponential smoothing with g=1 is last value.
	if got := (expSmooth{g: 1}).predict(h); got != 100 {
		t.Errorf("expSmooth(1) = %v", got)
	}
}

func TestLinkForecastRoundTrip(t *testing.T) {
	lf := NewLinkForecast()
	if _, _, ok := lf.Forecast(); ok {
		t.Error("empty link forecast must not be ok")
	}
	for i := 0; i < 10; i++ {
		lf.Record(0.01, 1e-7)
	}
	a, b, ok := lf.Forecast()
	if !ok || math.Abs(a-0.01) > 1e-12 || math.Abs(b-1e-7) > 1e-18 {
		t.Errorf("forecast = %v %v %v", a, b, ok)
	}
}

func TestForecastSetKeysByLink(t *testing.T) {
	fs := NewForecastSet()
	l1, l2 := MrenWAN(nil), GigabitLAN(nil)
	fs.For(l1).Record(1, 1)
	if fs.For(l1) != fs.For(l1) {
		t.Error("set must memoise per link")
	}
	if _, _, ok := fs.For(l2).Forecast(); ok {
		t.Error("fresh link must have no forecast")
	}
	if _, _, ok := fs.For(l1).Forecast(); !ok {
		t.Error("recorded link must forecast")
	}
}

func TestForecastBeatsRawProbeOnBurstyLink(t *testing.T) {
	// The point of the NWS integration: on a bursty link, the
	// forecast's error against the *long-run mean* effective beta is
	// smaller than the raw probe's, so cost estimates stop flapping.
	traffic := &BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.8, MeanQuiet: 10, MeanBusy: 5, Seed: 2}
	link := MrenWAN(traffic)
	lf := NewLinkForecast()
	var rawErr, forErr float64
	var mean float64
	// Establish the long-run mean effective beta.
	n := 0
	for ts := 0.0; ts < 400; ts += 1 {
		mean += link.EffectiveBeta(ts)
		n++
	}
	mean /= float64(n)
	for ts := 0.0; ts < 400; ts += 5 {
		_, bHat, _ := link.Probe(ts)
		if f, _, ok := lf.Forecast(); ok {
			_ = f
		}
		if _, fb, ok := lf.Forecast(); ok {
			forErr += math.Abs(fb - mean)
			rawErr += math.Abs(bHat - mean)
		}
		lf.Record(0.01, bHat)
	}
	if forErr >= rawErr {
		t.Errorf("forecast error %v should be below raw probe error %v", forErr, rawErr)
	}
}
