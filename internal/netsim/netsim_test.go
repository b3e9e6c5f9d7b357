package netsim

import (
	"math"
	"testing"
)

func TestConstantTraffic(t *testing.T) {
	c := ConstantTraffic{Level: 0.3}
	if c.Load(0) != 0.3 || c.Load(1e9) != 0.3 {
		t.Error("constant traffic not constant")
	}
	if (ConstantTraffic{Level: 2}).Load(0) > maxLoadClamp {
		t.Error("load must clamp below 1")
	}
	if (ConstantTraffic{Level: -1}).Load(0) != 0 {
		t.Error("negative load must clamp to 0")
	}
}

func TestSinusoidTrafficRange(t *testing.T) {
	s := SinusoidTraffic{Mean: 0.4, Amp: 0.3, Period: 60}
	lo, hi := 1.0, 0.0
	for x := 0.0; x < 120; x += 0.5 {
		l := s.Load(x)
		if l < 0 || l >= 1 {
			t.Fatalf("load out of range at %v: %v", x, l)
		}
		lo, hi = math.Min(lo, l), math.Max(hi, l)
	}
	if hi-lo < 0.5 {
		t.Errorf("sinusoid should span ~2*Amp: lo %v hi %v", lo, hi)
	}
	// Zero period degenerates to the mean.
	if (SinusoidTraffic{Mean: 0.2}).Load(17) != 0.2 {
		t.Error("zero-period sinusoid should return mean")
	}
}

func TestBurstyTrafficTwoLevelsAndConsistency(t *testing.T) {
	b := &BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.8, MeanQuiet: 5, MeanBusy: 5, Seed: 3}
	seenQuiet, seenBusy := false, false
	vals := make([]float64, 0, 200)
	for x := 0.0; x < 100; x += 0.5 {
		l := b.Load(x)
		vals = append(vals, l)
		switch l {
		case 0.1:
			seenQuiet = true
		case 0.8:
			seenBusy = true
		default:
			t.Fatalf("bursty load must be one of two levels, got %v", l)
		}
	}
	if !seenQuiet || !seenBusy {
		t.Error("bursty model never switched state in 100s with 5s dwell")
	}
	// Re-querying earlier times gives identical answers (memoised).
	i := 0
	for x := 0.0; x < 100; x += 0.5 {
		if b.Load(x) != vals[i] {
			t.Fatalf("bursty model inconsistent on re-query at %v", x)
		}
		i++
	}
}

func TestBurstyTrafficDeterministicAcrossInstances(t *testing.T) {
	a := &BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.7, Seed: 9}
	b := &BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.7, Seed: 9}
	// Query in different orders; same seed must give same answers.
	if a.Load(50) != b.Load(50) {
		t.Error("same seed should give same trace")
	}
	if a.Load(10) != b.Load(10) {
		t.Error("same seed should give same trace at earlier time")
	}
}

func TestRandomWalkTrafficBoundedAndDeterministic(t *testing.T) {
	w := &RandomWalkTraffic{Start: 0.3, Step: 0.1, Interval: 1, Seed: 5}
	for x := 0.0; x < 200; x += 0.7 {
		l := w.Load(x)
		if l < 0 || l > maxLoadClamp {
			t.Fatalf("walk out of range at %v: %v", x, l)
		}
	}
	w2 := &RandomWalkTraffic{Start: 0.3, Step: 0.1, Interval: 1, Seed: 5}
	if w.Load(42.3) != w2.Load(42.3) {
		t.Error("same seed should replay same walk")
	}
	// Negative times are treated as 0.
	if w.Load(-5) != w.Load(0) {
		t.Error("negative time should clamp to 0")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := NewLink("test", 0.01, 1e6, nil) // 10ms, 1 MB/s
	got := l.TransferTime(0, 1e6)
	if math.Abs(got-1.01) > 1e-12 {
		t.Errorf("transfer time = %v, want 1.01", got)
	}
	// Zero bytes still pays latency.
	if l.TransferTime(0, 0) != 0.01 {
		t.Error("zero-byte message must pay alpha")
	}
}

func TestTransferTimeMonotoneInSize(t *testing.T) {
	l := NewLink("test", 1e-3, 1e8, ConstantTraffic{Level: 0.5})
	prev := -1.0
	for bytes := 0.0; bytes <= 1e7; bytes += 1e6 {
		tt := l.TransferTime(0, bytes)
		if tt <= prev {
			t.Fatalf("transfer time not strictly increasing at %v bytes", bytes)
		}
		prev = tt
	}
}

func TestEffectiveBandwidthReduced(t *testing.T) {
	free := NewLink("free", 0, 1e8, nil)
	busy := NewLink("busy", 0, 1e8, ConstantTraffic{Level: 0.5})
	if busy.TransferTime(0, 1e6) <= free.TransferTime(0, 1e6) {
		t.Error("background traffic must slow transfers")
	}
	if got, want := busy.EffectiveBeta(0), 2*free.Beta; math.Abs(got-want) > 1e-18 {
		t.Errorf("50%% load should double beta: %v vs %v", got, want)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	l := NewLink("x", 0, 1e6, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	l.TransferTime(0, -1)
}

func TestNewLinkZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLink("bad", 0, 0, nil)
}

func TestProbeRecoversAlphaBeta(t *testing.T) {
	// Under constant traffic the two-message probe must recover the
	// effective parameters exactly.
	l := NewLink("wan", 0.02, 19.375e6, ConstantTraffic{Level: 0.4})
	aHat, bHat, pt := l.Probe(0)
	if math.Abs(aHat-0.02) > 1e-12 {
		t.Errorf("alpha estimate %v, want 0.02", aHat)
	}
	wantBeta := l.EffectiveBeta(0)
	if math.Abs(bHat-wantBeta)/wantBeta > 1e-12 {
		t.Errorf("beta estimate %v, want %v", bHat, wantBeta)
	}
	if pt <= 0 {
		t.Error("probe must consume time")
	}
}

// stepTraffic is a quiet link that turns busy at time at.
type stepTraffic struct{ at, after float64 }

func (s stepTraffic) Load(t float64) float64 {
	if t < s.at {
		return 0
	}
	return s.after
}

func TestProbeTracksDynamicTraffic(t *testing.T) {
	// With time-varying traffic the estimate at a busy moment must
	// exceed the estimate at a quiet moment.
	l := NewLink("wan", 0.02, 1e7, stepTraffic{at: 100, after: 0.8})
	_, quietBeta, _ := l.Probe(0)
	_, busyBeta, _ := l.Probe(200)
	if busyBeta <= quietBeta {
		t.Errorf("probe failed to detect congestion: %v vs %v", quietBeta, busyBeta)
	}
}

func TestFabricRouting(t *testing.T) {
	f := NewFabric(2)
	li0, li1 := OriginInterconnect(), OriginInterconnect()
	wan := MrenWAN(nil)
	f.SetIntra(0, li0)
	f.SetIntra(1, li1)
	f.SetInter(0, 1, wan)
	mustLink := func(a, b int) *Link {
		t.Helper()
		l, err := f.Between(a, b)
		if err != nil {
			t.Fatalf("Between(%d,%d): %v", a, b, err)
		}
		return l
	}
	if mustLink(0, 0) != li0 || mustLink(1, 1) != li1 {
		t.Error("intra routing wrong")
	}
	if mustLink(0, 1) != wan || mustLink(1, 0) != wan {
		t.Error("inter routing must be symmetric")
	}
	if f.NumGroups() != 2 {
		t.Error("NumGroups wrong")
	}
}

func TestFabricMissingLinkErrors(t *testing.T) {
	f := NewFabric(2)
	if _, err := f.Between(0, 1); err == nil {
		t.Error("missing inter link must be an error")
	}
	if _, err := f.Intra(0); err == nil {
		t.Error("missing intra link must be an error")
	}
	if _, err := f.Intra(-1); err == nil {
		t.Error("out-of-range group must be an error")
	}
	if _, err := f.Intra(2); err == nil {
		t.Error("out-of-range group must be an error")
	}
}

func TestFabricEachLinkDeterministic(t *testing.T) {
	f := NewFabric(3)
	for g := 0; g < 3; g++ {
		f.SetIntra(g, OriginInterconnect())
	}
	f.SetInter(0, 1, MrenWAN(nil))
	f.SetInter(1, 2, MrenWAN(nil))
	f.SetInter(0, 2, MrenWAN(nil))
	visit := func() [][2]int {
		var out [][2]int
		f.EachLink(func(a, b int, l *Link) {
			if l == nil {
				t.Fatal("nil link visited")
			}
			out = append(out, [2]int{a, b})
		})
		return out
	}
	first := visit()
	want := [][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {0, 2}, {1, 2}}
	if len(first) != len(want) {
		t.Fatalf("visited %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("visit order %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		again := visit()
		for i := range first {
			if again[i] != first[i] {
				t.Fatal("EachLink order not deterministic")
			}
		}
	}
}

func TestStandardLinks(t *testing.T) {
	lan := GigabitLAN(nil)
	wan := MrenWAN(nil)
	if lan.Alpha >= wan.Alpha {
		t.Error("LAN latency must be below WAN latency")
	}
	if lan.Beta >= wan.Beta {
		t.Error("LAN must be faster per byte than WAN")
	}
	oi := OriginInterconnect()
	if oi.Alpha >= lan.Alpha {
		t.Error("machine interconnect must beat LAN")
	}
}
