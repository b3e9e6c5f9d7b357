//go:build !race

package amr

import "testing"

// TestChildInitAllocsPerCall: re-initialising warmed children allocates
// as often for 8 children as for 64, so child init allocates per call
// (its source cuts), never per child. Under the race detector sync.Pool
// drops a quarter of its puts, so each child's pooled plan scratch
// would allocate there; the test runs without it.
func TestChildInitAllocsPerCall(t *testing.T) {
	allocs := func(n int) float64 {
		h, li, oli, children := childInitFixture(t, n)
		init := func() { h.initChildren(children, li, oli) }
		init()
		return testing.AllocsPerRun(20, init)
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Errorf("initialising 8 children allocates %.0f times, 64 children %.0f times: want equal", a8, a64)
	}
}
