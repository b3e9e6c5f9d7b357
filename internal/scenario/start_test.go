package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/metrics"
	"samrdlb/internal/trace"
)

// TestStartWithoutStoreWritesNoFile pins where a resume cut keeps its
// generations when no store is attached: in memory. TMPDIR neither
// gains an entry nor changes its modification time across generated
// cut scenarios, a torn and a bit-flipped generation among them, and
// every Result is the one the same scenario yields on an OS directory.
func TestStartWithoutStoreWritesNoFile(t *testing.T) {
	osRoot := t.TempDir()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	before, err := os.Stat(tmp)
	if err != nil {
		t.Fatal(err)
	}

	// Cuts after at least two durable writes, so a resume has an older
	// generation to fall back to.
	var cuts []Scenario
	for seed := int64(1); len(cuts) < 4; seed++ {
		if s := Generate(seed); s.ResumeCut >= 2*s.CkptInterval {
			cuts = append(cuts, s)
		}
	}
	// The generator draws no disk faults: corrupt the newest generation
	// two first legs write, so their resumes fall back past it.
	cuts[0] = withDiskFault(t, cuts[0], fault.DiskTornWrite)
	cuts[1] = withDiskFault(t, cuts[1], fault.DiskBitFlip)

	for i, s := range cuts {
		out := s.ExecuteWithHistory(metrics.NewHistory())
		if out.Failed() {
			t.Fatalf("%s: %s", s.Encode(), out.Summary())
		}
		dir := ckpt.OSDir(filepath.Join(osRoot, fmt.Sprint(i)))
		r, report, err := s.Start(false, func(o *engine.Options) { o.Checkpoints = dir })
		if err != nil {
			t.Fatalf("%s on disk: %v", s.Encode(), err)
		}
		if got, want := r.Run().Identity(), out.Result.Identity(); got != want {
			t.Errorf("%s: on disk\n%s\nin memory\n%s", s.Encode(), got, want)
		}
		if corrupt := i < 2; corrupt != (len(report.Skipped) > 0) {
			t.Errorf("%s: resume skipped %+v", s.Encode(), report.Skipped)
		}
	}

	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("TMPDIR holds %d entries, modified %v → %v: a cut without a store touched the disk",
			len(entries), before.ModTime(), after.ModTime())
	}
}

// withDiskFault adds a kind event to s's script whose window holds
// exactly the newest durable write of the first leg. A probe run with
// the event parked past the run's end finds that write's virtual time;
// a disk fault moves no clock, so the faulted run writes at the same
// times.
func withDiskFault(t *testing.T, s Scenario, kind fault.Kind) Scenario {
	t.Helper()
	s.Faults = append(slices.Clone(s.Faults), fault.Event{Kind: kind, Start: 1e8, End: 1e9})
	tr := trace.New()
	legs := 0
	if _, _, err := s.Start(false, func(o *engine.Options) {
		if legs++; legs == 1 {
			o.Trace = tr
		}
	}); err != nil {
		t.Fatalf("%s: %v", s.Encode(), err)
	}
	var writes []float64
	for _, e := range tr.OfKind(trace.Checkpoint) {
		if strings.HasPrefix(e.Note, "gen=") {
			writes = append(writes, e.VTime)
		}
	}
	if len(writes) < 2 {
		t.Fatalf("%s: the first leg wrote %d generations, want two or more", s.Encode(), len(writes))
	}
	last := writes[len(writes)-1]
	s.Faults[len(s.Faults)-1].Start, s.Faults[len(s.Faults)-1].End = last, math.Nextafter(last, math.Inf(1))
	return s
}
