package ckpt

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corrupt mutates the newest generation file of an OS-backed store on
// disk.
func corrupt(t *testing.T, s *Store, mutate func([]byte) []byte) {
	t.Helper()
	gens := s.Generations()
	if len(gens) == 0 {
		t.Fatal("no generations to corrupt")
	}
	path := filepath.Join(string(s.dir.(OSDir)), gens[len(gens)-1].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionMatrix is the ckpt half of the corruption matrix: a
// torn (truncated) stream, a flipped byte in the meta frame, a
// flipped byte in the hierarchy payload, a zero-length file, and a
// file with trailing garbage must all be skipped with an error —
// never a panic — and an intact older generation must win.
func TestCorruptionMatrix(t *testing.T) {
	headerOff := len(magic) + frameOverhead + 2 // inside the meta frame
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		reason string // expected in the skip reason ("" = any)
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }, ""},
		{"flipped-header-byte", func(d []byte) []byte { d[headerOff] ^= 0xff; return d }, ""},
		{"flipped-payload-byte", func(d []byte) []byte { d[len(d)-3] ^= 0x01; return d }, ""},
		{"zero-length", func(d []byte) []byte { return nil }, ""},
		{"bad-magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, ""},
		{"trailing-garbage", func(d []byte) []byte { return append(d, 0xde, 0xad) }, ""},
		{"torn-in-frame-header", func(d []byte) []byte { return d[:len(magic)+3] }, ""},
		// An intact version-1 generation keeps its counters at the top
		// level of the header under partly different names and types. It
		// must be skipped for its version, not restored with counters
		// zeroed or misread.
		{"meta-version-1", func([]byte) []byte { return v1Image(t, []byte("newest generation")) }, "meta version 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := Open(t.TempDir(), 3)
			mustWrite(t, s, 3, []byte("older intact generation"))
			mustWrite(t, s, 6, []byte("newest generation"))
			corrupt(t, s, tc.mutate)

			meta, payload, report, err := s.Restore(nil)
			if err != nil {
				t.Fatalf("fallback to the intact generation failed: %v", err)
			}
			if meta.Step != 3 || string(payload) != "older intact generation" {
				t.Errorf("restored step %d payload %q, want the intact gen", meta.Step, payload)
			}
			if len(report.Skipped) != 1 {
				t.Fatalf("skipped = %+v, want exactly the corrupt newest gen", report.Skipped)
			}
			if !strings.Contains(report.Skipped[0].Reason, tc.reason) {
				t.Errorf("skip reason %q, want it to mention %q", report.Skipped[0].Reason, tc.reason)
			}
		})
	}
}

// v1Image is an intact generation whose header is in MetaVersion 1's
// format.
func v1Image(t testing.TB, payload []byte) []byte {
	var hdr, img bytes.Buffer
	v1 := struct {
		Version, Step, GlobalEvals, QuarSteps int
		FailedProcs                           []int
	}{1, 6, 9, 2, []int{3}}
	if err := gob.NewEncoder(&hdr).Encode(v1); err != nil {
		t.Fatal(err)
	}
	img.WriteString(magic)
	frame(&img, hdr.Bytes())
	frame(&img, payload)
	return img.Bytes()
}

// TestAllGenerationsCorruptErrors verifies the terminal case: every
// generation unusable yields a descriptive error naming each skip.
func TestAllGenerationsCorruptErrors(t *testing.T) {
	s, _ := Open(t.TempDir(), 3)
	mustWrite(t, s, 0, []byte("a"))
	corrupt(t, s, func(d []byte) []byte { return d[:1] })
	_, _, report, err := s.Restore(nil)
	if err == nil {
		t.Fatal("restore must fail when every generation is corrupt")
	}
	if len(report.Skipped) != 1 {
		t.Errorf("report = %+v", report)
	}
}

// TestInjectedDiskFaults drives the Write-side corruption through a
// scripted DiskFault and checks Restore's behaviour end to end.
type scriptedFault struct {
	errOn, tearOn, flipOn int // write index each fault fires on (-1 = never)
	removeOn              int // write index whose prune deletions fail (0 = never)
}

func (f scriptedFault) WriteError(n int, t float64) bool { return n == f.errOn }
func (f scriptedFault) TornWrite(n int, t float64) (bool, float64) {
	return n == f.tearOn, 0.5
}
func (f scriptedFault) FlipBit(n int, t float64) (bool, float64) {
	return n == f.flipOn, 0.75
}
func (f scriptedFault) RemoveError(n int, t float64) bool {
	return f.removeOn != 0 && n == f.removeOn
}

func TestInjectedDiskFaults(t *testing.T) {
	t.Run("write-error", func(t *testing.T) { eachBackend(t, testWriteError) })
	t.Run("torn-then-fallback", func(t *testing.T) { eachBackend(t, testTornThenFallback) })
	t.Run("bit-flip-then-fallback", func(t *testing.T) { eachBackend(t, testBitFlipThenFallback) })
}

func testWriteError(t *testing.T, d Dir) {
	s := open(t, d, 3)
	s.SetFault(scriptedFault{errOn: 1, tearOn: -1, flipOn: -1})
	mustWrite(t, s, 0, []byte("ok"))
	if _, err := s.Write(testMeta(1), []byte("doomed"), 1, 1); err == nil {
		t.Fatal("injected write error must surface")
	}
	if n := len(s.Generations()); n != 1 {
		t.Errorf("failed write left %d generations, want 1", n)
	}
	meta, _, _, err := s.Restore(nil)
	if err != nil || meta.Step != 0 {
		t.Errorf("restore after failed write: meta=%+v err=%v", meta, err)
	}
}

func testTornThenFallback(t *testing.T, d Dir) {
	s := open(t, d, 3)
	s.SetFault(scriptedFault{errOn: -1, tearOn: 1, flipOn: -1})
	mustWrite(t, s, 0, []byte("intact"))
	if _, err := s.Write(testMeta(1), []byte("torn payload"), 1, 1); err != nil {
		t.Fatalf("a torn write succeeds from the writer's view: %v", err)
	}
	meta, payload, report, err := s.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 0 || string(payload) != "intact" {
		t.Errorf("restored step %d payload %q", meta.Step, payload)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].Gen != 2 {
		t.Errorf("report = %+v", report)
	}
}

func testBitFlipThenFallback(t *testing.T, d Dir) {
	s := open(t, d, 3)
	s.SetFault(scriptedFault{errOn: -1, tearOn: -1, flipOn: 1})
	mustWrite(t, s, 0, []byte("intact"))
	payload := []byte("payload that will take a bit flip somewhere")
	if _, err := s.Write(testMeta(1), payload, 1, 1); err != nil {
		t.Fatal(err)
	}
	meta, got, report, err := s.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 0 || string(got) != "intact" {
		t.Errorf("restored step %d payload %q", meta.Step, got)
	}
	if len(report.Skipped) != 1 {
		t.Errorf("report = %+v", report)
	}
}
