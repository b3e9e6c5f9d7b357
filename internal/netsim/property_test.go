package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func qc(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

func TestTransferTimeMonotoneProperty(t *testing.T) {
	// For any traffic state and any pair of sizes, the larger message
	// never arrives sooner.
	models := []TrafficModel{
		nil,
		ConstantTraffic{Level: 0.3},
		SinusoidTraffic{Mean: 0.4, Amp: 0.3, Period: 30},
		&BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.8, Seed: 3},
		&RandomWalkTraffic{Start: 0.2, Step: 0.1, Seed: 4},
	}
	links := make([]*Link, len(models))
	for i, m := range models {
		links[i] = NewLink("l", 1e-3, 1e8, m)
	}
	f := func(ts, a, b float64) bool {
		now := math.Abs(math.Mod(ts, 1000))
		x, y := math.Abs(a), math.Abs(b)
		if x > y {
			x, y = y, x
		}
		for _, l := range links {
			if l.TransferTime(now, x) > l.TransferTime(now, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc(31)); err != nil {
		t.Error(err)
	}
}

func TestEffectiveBetaNeverBelowNominalProperty(t *testing.T) {
	// Background traffic can only slow a link down.
	l := NewLink("l", 0, 1e8, &BurstyTraffic{QuietLoad: 0.0, BusyLoad: 0.9, Seed: 7})
	f := func(ts float64) bool {
		now := math.Abs(math.Mod(ts, 500))
		return l.EffectiveBeta(now) >= l.Beta
	}
	if err := quick.Check(f, qc(32)); err != nil {
		t.Error(err)
	}
}

func TestProbeExactUnderConstantTrafficProperty(t *testing.T) {
	// For any latency, bandwidth and constant load, the two-message
	// probe recovers the effective parameters exactly.
	f := func(lat, bw, loadRaw float64) bool {
		latency := math.Abs(math.Mod(lat, 0.1))
		bandwidth := 1e6 + math.Abs(math.Mod(bw, 1e9))
		level := math.Abs(math.Mod(loadRaw, 0.9))
		l := NewLink("l", latency, bandwidth, ConstantTraffic{Level: level})
		aHat, bHat, _ := l.Probe(0)
		wantB := l.EffectiveBeta(0)
		return math.Abs(aHat-latency) <= 1e-9*(1+latency) &&
			math.Abs(bHat-wantB) <= 1e-9*wantB
	}
	if err := quick.Check(f, qc(33)); err != nil {
		t.Error(err)
	}
}

func TestForecastWithinHistoryRangeProperty(t *testing.T) {
	// Every predictor in the NWS family is a convex combination of
	// history values, so the forecast stays inside [min, max].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSeries(0)
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			v := rng.Float64() * 100
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			s.Record(v)
		}
		v, ok := s.Forecast()
		return ok && v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, qc(34)); err != nil {
		t.Error(err)
	}
}

func TestTrafficModelsBoundedProperty(t *testing.T) {
	models := []TrafficModel{
		ConstantTraffic{Level: 1.5},
		SinusoidTraffic{Mean: 0.8, Amp: 0.9, Period: 10},
		&BurstyTraffic{QuietLoad: -1, BusyLoad: 3, Seed: 9},
		&RandomWalkTraffic{Start: 0.9, Step: 0.5, Seed: 10},
	}
	f := func(ts float64) bool {
		now := math.Abs(math.Mod(ts, 300))
		for _, m := range models {
			l := m.Load(now)
			if l < 0 || l > maxLoadClamp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc(35)); err != nil {
		t.Error(err)
	}
}
