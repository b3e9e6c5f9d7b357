package ckpt

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBackendParity replays one write, prune and fault script on both
// backends, reopening the store halfway as a restart would. The two
// must hold byte-identical generation images, retain the same
// generations and restore the same way.
func TestBackendParity(t *testing.T) {
	type outcome struct {
		files  map[string][]byte
		gens   []GenEntry
		report *RestoreReport
	}
	run := func(d Dir) outcome {
		// Write 2 fails, 7 lands torn, 8 bit-flipped and 9's prune
		// strands generation 5.
		fault := scriptedFault{errOn: 2, tearOn: 7, flipOn: 8, removeOn: 9}
		s := open(t, d, 4)
		s.SetFault(fault)
		for seq := 0; seq < 10; seq++ {
			if seq == 5 {
				s = open(t, d, 4)
				s.SetFault(fault)
			}
			payload := bytes.Repeat([]byte{byte(seq)}, 40+seq)
			if _, err := s.Write(testMeta(seq), payload, seq, float64(seq)); (err != nil) != (seq == fault.errOn) {
				t.Fatalf("write %d: %v", seq, err)
			}
		}
		// After a restart the newest generation fails the caller's
		// check, so Restore walks past it and the two corrupt ones.
		s = open(t, d, 4)
		_, _, report, err := s.Restore(func(m *Meta, _ []byte) error {
			if m.Step == 9 {
				return os.ErrInvalid
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range genFiles(t, d) {
			data, err := d.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
		return outcome{files, s.Generations(), report}
	}
	disk, mem := run(OSDir(t.TempDir())), run(NewMemDir())
	names := make([]string, 0, len(disk.files))
	for name := range disk.files {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 5 {
		t.Errorf("files %v, want the four retained generations and one stranded", names)
	}
	for _, name := range names {
		if !bytes.Equal(disk.files[name], mem.files[name]) {
			t.Errorf("%s differs between the backends", name)
		}
	}
	if len(mem.files) != len(disk.files) {
		t.Errorf("memory holds %d files, disk %d", len(mem.files), len(disk.files))
	}
	if !reflect.DeepEqual(disk.gens, mem.gens) {
		t.Errorf("generations: disk %+v, memory %+v", disk.gens, mem.gens)
	}
	if !reflect.DeepEqual(disk.report, mem.report) {
		t.Errorf("restore: disk %+v, memory %+v", disk.report, mem.report)
	}
	if len(disk.report.Skipped) != 3 || disk.report.Gen != 6 {
		t.Errorf("restore %+v, want gens 9, 8 and 7 skipped and gen 6 restored", disk.report)
	}
}
