//go:build !race

package amr

import (
	"runtime"
	"testing"
)

// TestRegridReusesRetiredStorageBytes: once two regrids over fixed
// flags have warmed the spares, a third rebuilds the same fine levels
// on the storage the second retired, so it allocates under a quarter
// of the rebuilt levels' field storage. The race detector's sync.Pool
// drops puts at random, so the plan scratch would allocate there; the
// test runs without it.
func TestRegridReusesRetiredStorageBytes(t *testing.T) {
	h, flag := recycleFixture()
	p := DefaultRegridParams()
	h.RegridAll(0, flag, p, nil)
	h.RegridAll(0, flag, p, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.RegridAll(0, flag, p, nil)
	runtime.ReadMemStats(&after)
	var storage uint64
	for _, g := range fineGrids(h) {
		storage += uint64(g.Patch.Grown().NumCells()) * uint64(len(h.Fields)) * 8
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; 4*alloc >= storage {
		t.Errorf("a regrid rebuilding %d B of fine-level storage allocated %d B, want under a quarter", storage, alloc)
	} else {
		t.Logf("a regrid rebuilding %d B of fine-level storage allocated %d B", storage, alloc)
	}
}
