package netsim

import (
	"math"
	"strings"
	"testing"
)

// scriptedFault is a test double for the FaultModel interface: down
// and degraded over fixed windows, dropping the first nDrop probe
// messages.
type scriptedFault struct {
	downLo, downHi float64
	degrade        float64
	nDrop          int
	seen           int
}

func (f *scriptedFault) Down(t float64) bool { return t >= f.downLo && t < f.downHi }
func (f *scriptedFault) Degrade(t float64) float64 {
	if f.degrade == 0 {
		return 1
	}
	return f.degrade
}
func (f *scriptedFault) DropProbe(t float64) bool {
	f.seen++
	return f.seen <= f.nDrop
}

func TestAvailableAndDegrade(t *testing.T) {
	l := MrenWAN(nil)
	if !l.Available(5) {
		t.Error("fault-free link must always be available")
	}
	base := l.EffectiveBeta(0)
	l.Fault = &scriptedFault{downLo: 10, downHi: 20, degrade: 4}
	if l.Available(15) || !l.Available(5) || !l.Available(20) {
		t.Error("availability window wrong")
	}
	if got := l.EffectiveBeta(0); math.Abs(got-4*base)/base > 1e-12 {
		t.Errorf("degraded beta %v, want %v", got, 4*base)
	}
}

func TestTryProbeFailsWhenDown(t *testing.T) {
	l := MrenWAN(nil)
	l.Fault = &scriptedFault{downLo: 0, downHi: 100}
	_, _, pt, err := l.TryProbe(5)
	if err == nil {
		t.Fatal("probe over a down link must fail")
	}
	if pt != 0 {
		t.Errorf("failed probe must not report probe time, got %v", pt)
	}
	// Outside the window it matches the fault-blind probe.
	a1, b1, t1 := l.Probe(200)
	a2, b2, t2, err := l.TryProbe(200)
	if err != nil {
		t.Fatalf("probe after window: %v", err)
	}
	if a1 != a2 || b1 != b2 || t1 != t2 {
		t.Error("TryProbe must match Probe when healthy")
	}
}

func TestTryProbeDropsMessages(t *testing.T) {
	l := MrenWAN(nil)
	l.Fault = &scriptedFault{nDrop: 2}
	if _, _, _, err := l.TryProbe(0); err == nil || !strings.Contains(err.Error(), "message 1") {
		t.Fatalf("first message drop: %v", err)
	}
	// The second drop hits the second call's first message; the third
	// call then gets both messages through.
	if _, _, _, err := l.TryProbe(0); err == nil {
		t.Fatal("second probe must also fail")
	}
	if _, _, _, err := l.TryProbe(0); err != nil {
		t.Fatalf("drops exhausted, want success: %v", err)
	}
}

func TestProbeWithRetryRecoversAndTimes(t *testing.T) {
	l := MrenWAN(nil)
	l.Fault = &scriptedFault{nDrop: 2} // first attempt loses msg1, second loses msg1, third succeeds
	a, b, elapsed, retryTime, attempts, err := l.ProbeWithRetry(0)
	if err != nil {
		t.Fatalf("retry must eventually succeed: %v", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	// Two failures cost 2 timeouts of 0.25 s + backoffs 0.1 and 0.2 s.
	wantRetry := 2*0.25 + 0.1 + 0.2
	if math.Abs(retryTime-wantRetry) > 1e-12 {
		t.Errorf("retryTime = %v, want %v", retryTime, wantRetry)
	}
	// Elapsed = retry overhead + the successful probe itself.
	_, _, pt := l.Probe(wantRetry)
	if math.Abs(elapsed-(wantRetry+pt)) > 1e-12 {
		t.Errorf("elapsed = %v, want %v", elapsed, wantRetry+pt)
	}
	if a <= 0 || b <= 0 {
		t.Errorf("estimates must be positive: α=%v β=%v", a, b)
	}
}

func TestProbeWithRetryExhausts(t *testing.T) {
	l := MrenWAN(nil)
	l.Fault = &scriptedFault{downLo: 0, downHi: 1e9}
	_, _, elapsed, retryTime, attempts, err := l.ProbeWithRetry(0)
	if err == nil {
		t.Fatal("retry over a dead link must fail")
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	// 3 timeouts + the two backoffs between them; none after the last.
	want := 3*0.25 + 0.1 + 0.2
	if math.Abs(elapsed-want) > 1e-12 || math.Abs(retryTime-want) > 1e-12 {
		t.Errorf("elapsed %v retry %v, want both %v", elapsed, retryTime, want)
	}
}

// TestRetryPolicyDefaults pins the retry schedule, which is constant:
// nothing outside this package's tests ever set another one.
func TestRetryPolicyDefaults(t *testing.T) {
	if probeAttempts != 3 || probeTimeout != 0.25 || probeBackoff != 0.1 || probeMaxBackoff != 2 {
		t.Errorf("retry schedule = %d attempts, %v s timeout, %v s backoff, %v s cap; want 3, 0.25, 0.1, 2",
			probeAttempts, probeTimeout, probeBackoff, probeMaxBackoff)
	}
}
