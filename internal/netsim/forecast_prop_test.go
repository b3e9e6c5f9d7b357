package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestForecastNonnegativeProperty is the property behind the probe-loss
// fallback: every predictor in the NWS family is an average, median or
// last value of its history, so any non-negative measurement history
// must forecast a finite, non-negative value. The cost model (Eq. 1)
// divides by and multiplies these, so a negative or NaN forecast would
// poison Gain/Cost comparisons.
func TestForecastNonnegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		s := NewSeries(1 + rng.Intn(64))
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			// Adversarial histories: zeros, tiny, huge, bursty.
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = 0
			case 1:
				v = rng.Float64() * 1e-12
			case 2:
				v = rng.Float64() * 1e12
			default:
				v = rng.Float64()
			}
			s.Record(v)
			got, ok := s.Forecast()
			if !ok {
				t.Fatalf("trial %d: no forecast after %d samples", trial, len(s.hist))
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Fatalf("trial %d: forecast %v from non-negative history (predictor %s)",
					trial, got, s.Best())
			}
		}
	}
}

// TestLinkForecastNonnegative mirrors the property at the LinkForecast
// level the DLB cost fallback actually consumes.
func TestLinkForecastNonnegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lf := NewLinkForecast()
		if _, _, ok := lf.Forecast(); ok {
			t.Fatal("forecast from empty history must report !ok")
		}
		for i := 0; i < 1+rng.Intn(50); i++ {
			lf.Record(rng.Float64()*1e-3, rng.Float64()*1e-8)
			a, b, ok := lf.Forecast()
			if !ok {
				t.Fatalf("trial %d: no forecast after recording", trial)
			}
			if !(a >= 0) || !(b >= 0) || math.IsInf(a, 0) || math.IsInf(b, 0) {
				t.Fatalf("trial %d: forecast α=%v β=%v", trial, a, b)
			}
		}
	}
}
