package ckpt

import (
	"os"
	"strings"
	"testing"

	"samrdlb/internal/vclock"
)

// backends are the two Dir implementations every test that does not
// look at the disk itself runs on.
var backends = []struct {
	name string
	dir  func(t *testing.T) Dir
}{
	{"os", func(t *testing.T) Dir { return OSDir(t.TempDir()) }},
	{"memory", func(*testing.T) Dir { return NewMemDir() }},
}

// eachBackend runs fn once per backend, as a subtest named after it.
func eachBackend(t *testing.T, fn func(t *testing.T, d Dir)) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { fn(t, b.dir(t)) })
	}
}

// Generations returns the retained generations, oldest first.
func (s *Store) Generations() []GenEntry {
	return append([]GenEntry(nil), s.gens...)
}

// open opens a store in d, failing the test on error.
func open(t *testing.T, d Dir, keep int) *Store {
	t.Helper()
	s, err := OpenDir(d, keep)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// genFiles lists the generation files d holds.
func genFiles(t *testing.T, d Dir) []string {
	t.Helper()
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for _, n := range names {
		if strings.HasSuffix(n, ".ckpt") {
			gens = append(gens, n)
		}
	}
	return gens
}

// testMeta builds a minimal but distinctive meta.
func testMeta(step int) *Meta {
	return &Meta{
		Step:    step,
		SimTime: float64(step) * 0.25,
		Clock:   vclock.State{Now: float64(step), Busy: []float64{1, 2}},
	}
}

func mustWrite(t *testing.T, s *Store, step int, payload []byte) int {
	t.Helper()
	gen, err := s.Write(testMeta(step), payload, step, float64(step))
	if err != nil {
		t.Fatalf("Write(step=%d): %v", step, err)
	}
	return gen
}

func TestWriteRestoreRoundTrip(t *testing.T) { eachBackend(t, testWriteRestoreRoundTrip) }

func testWriteRestoreRoundTrip(t *testing.T, d Dir) {
	s := open(t, d, 3)
	payload := []byte("hierarchy bytes for step 4")
	gen := mustWrite(t, s, 4, payload)
	if gen != 1 {
		t.Errorf("first generation = %d, want 1", gen)
	}
	meta, got, report, err := s.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 4 || meta.SimTime != 1.0 {
		t.Errorf("meta = %+v", meta)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
	if report.Gen != 1 || len(report.Skipped) != 0 {
		t.Errorf("report = %+v", report)
	}
}

func TestRetentionPrunesOldGenerations(t *testing.T) {
	eachBackend(t, testRetentionPrunesOldGenerations)
}

func testRetentionPrunesOldGenerations(t *testing.T, d Dir) {
	s := open(t, d, 2)
	for step := 0; step < 5; step++ {
		mustWrite(t, s, step, []byte{byte(step)})
	}
	gens := s.Generations()
	if len(gens) != 2 || gens[0].Gen != 4 || gens[1].Gen != 5 {
		t.Fatalf("retained generations = %+v, want gens 4 and 5", gens)
	}
	if files := genFiles(t, d); len(files) != 2 {
		t.Errorf("generation files = %v, want 2", files)
	}
	// The newest still restores.
	meta, _, _, err := s.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 4 {
		t.Errorf("restored step %d, want 4", meta.Step)
	}
}

func TestReopenContinuesGenerationNumbering(t *testing.T) {
	eachBackend(t, testReopenContinuesGenerationNumbering)
}

func testReopenContinuesGenerationNumbering(t *testing.T, d Dir) {
	s := open(t, d, 3)
	mustWrite(t, s, 0, []byte("a"))
	mustWrite(t, s, 1, []byte("b"))

	s2 := open(t, d, 3)
	gen := mustWrite(t, s2, 2, []byte("c"))
	if gen != 3 {
		t.Errorf("generation after reopen = %d, want 3", gen)
	}
	meta, payload, _, err := s2.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 2 || string(payload) != "c" {
		t.Errorf("restored step %d payload %q", meta.Step, payload)
	}
}

func TestEmptyStoreRestoreFails(t *testing.T) { eachBackend(t, testEmptyStoreRestoreFails) }

func testEmptyStoreRestoreFails(t *testing.T, d Dir) {
	s := open(t, d, 3)
	if _, _, _, err := s.Restore(nil); err == nil {
		t.Fatal("restore of an empty store must fail")
	}
}

func TestAcceptRejectionFallsBack(t *testing.T) { eachBackend(t, testAcceptRejectionFallsBack) }

func testAcceptRejectionFallsBack(t *testing.T, d Dir) {
	s := open(t, d, 3)
	mustWrite(t, s, 0, []byte("good"))
	mustWrite(t, s, 1, []byte("semantically bad"))
	meta, payload, report, err := s.Restore(func(m *Meta, p []byte) error {
		if string(p) != "good" {
			return os.ErrInvalid
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 0 || string(payload) != "good" {
		t.Errorf("restored step %d payload %q, want the older good generation", meta.Step, payload)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].Gen != 2 {
		t.Errorf("report = %+v, want gen 2 skipped", report)
	}
	if !strings.Contains(report.String(), "skipped generation 2") {
		t.Errorf("report string %q lacks the skip", report.String())
	}
}
