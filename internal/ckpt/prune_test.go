package ckpt

import (
	"os"
	"testing"
)

// TestPruneErrorsCounted pins the prune-failure fix: a deletion that
// fails must be counted and the file visibly stranded, instead of the
// error vanishing. (Pre-fix, prune ignored os.Remove's error and
// exposed no counter at all.) A reopened store scans the directory and
// must keep the stranded file out of its retained set.
func TestPruneErrorsCounted(t *testing.T) { eachBackend(t, testPruneErrorsCounted) }

func testPruneErrorsCounted(t *testing.T, d Dir) {
	s := open(t, d, 2)
	s.SetFault(scriptedFault{errOn: -1, tearOn: -1, flipOn: -1, removeOn: 3})
	for step := 0; step <= 2; step++ {
		mustWrite(t, s, step, []byte("gen"))
	}
	// Writes 0..2: the prune at write 2 deletes generation 1 cleanly.
	if got := s.PruneErrors(); got != 0 {
		t.Fatalf("clean prunes counted %d errors", got)
	}
	if n := len(genFiles(t, d)); n != 2 {
		t.Fatalf("%d generation files, want 2", n)
	}
	// Write 3's prune hits the injected RemoveError: the store stops
	// tracking the generation but its file stays behind.
	mustWrite(t, s, 3, []byte("gen"))
	if got := s.PruneErrors(); got != 1 {
		t.Errorf("PruneErrors = %d, want 1", got)
	}
	if n := len(s.Generations()); n != 2 {
		t.Errorf("store tracks %d generations, want 2", n)
	}
	if n := len(genFiles(t, d)); n != 3 {
		t.Errorf("%d generation files, want 3 (one stranded)", n)
	}

	// A restart scans the directory: it retains the newest two, and
	// the stranded generation 2 is in no Restore chain.
	reopened := open(t, d, 2)
	if gens := reopened.Generations(); len(gens) != 2 || gens[0].Gen != 3 || gens[1].Gen != 4 {
		t.Errorf("reopened store retains %+v, want gens 3 and 4", gens)
	}
	_, _, report, err := reopened.Restore(func(*Meta, []byte) error { return os.ErrInvalid })
	if err == nil {
		t.Fatal("a restore that rejects every generation must fail")
	}
	for _, sk := range report.Skipped {
		if sk.Gen == 2 {
			t.Errorf("restore visited the stranded generation: %+v", report.Skipped)
		}
	}
	if len(report.Skipped) != 2 {
		t.Errorf("restore visited %+v, want gens 4 and 3", report.Skipped)
	}

	// Subsequent clean prunes neither re-count nor touch the stranded
	// file.
	mustWrite(t, s, 4, []byte("gen"))
	if got := s.PruneErrors(); got != 1 {
		t.Errorf("PruneErrors after a clean prune = %d, want still 1", got)
	}
	if n := len(genFiles(t, d)); n != 3 {
		t.Errorf("%d generation files after a clean prune, want 3", n)
	}
}

// TestPredictPruneErrors: the injected decision is a pure function of
// (seq, now), so the prediction must match what the write then does.
func TestPredictPruneErrors(t *testing.T) { eachBackend(t, testPredictPruneErrors) }

func testPredictPruneErrors(t *testing.T, d Dir) {
	s := open(t, d, 2)
	s.SetFault(scriptedFault{errOn: -1, tearOn: -1, flipOn: -1, removeOn: 3})
	mustWrite(t, s, 0, []byte("gen"))
	// Below the retention limit nothing prunes, fault or not.
	if got := s.PredictPruneErrors(3, 3); got != 0 {
		t.Errorf("prediction below keep = %d, want 0", got)
	}
	mustWrite(t, s, 1, []byte("gen"))
	if got := s.PredictPruneErrors(2, 2); got != 0 {
		t.Errorf("prediction for a clean prune = %d, want 0", got)
	}
	if got := s.PredictPruneErrors(3, 3); got != 1 {
		t.Errorf("prediction for the faulted prune = %d, want 1", got)
	}
	mustWrite(t, s, 2, []byte("gen")) // clean prune
	before := s.PruneErrors()
	predicted := s.PredictPruneErrors(3, 3)
	mustWrite(t, s, 3, []byte("gen")) // faulted prune
	if got := s.PruneErrors() - before; got != predicted {
		t.Errorf("write incurred %d prune errors, prediction said %d", got, predicted)
	}
}
