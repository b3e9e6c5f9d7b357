package engine_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/scenario"
)

// TestResumeByteIdenticalGeneratedConfigs extends the byte-identity
// guarantee from the fixed configurations of ckpt_resume_test.go to
// generator-produced ones: for scenarios drawn from the property
// harness, a run interrupted at every reachable checkpoint boundary
// and resumed from the durable store yields a Result deeply equal to
// the uninterrupted run's. Each scenario keeps its fault schedule,
// processor failures included, except probe-loss events, and
// forecasting is off: both reach the NWS forecast history, which
// restarts empty on resume (ROADMAP item 18; the scenario package
// encodes the forecasting half of the exclusion in Normalize).
func TestResumeByteIdenticalGeneratedConfigs(t *testing.T) {
	for _, seed := range []int64{3, 5, 8, 15, 18, 21, 34, 60} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := scenario.Generate(seed)
			sc.Faults = slices.DeleteFunc(sc.Faults, func(e fault.Event) bool { return e.Kind == fault.ProbeLoss })
			sc.UseForecast = false
			sc.ResumeCut = -1
			if sc.Steps <= sc.CkptInterval {
				sc.Steps = sc.CkptInterval + 2
			}
			sc.Normalize()

			opt, err := sc.EngineOptions(nil)
			if err != nil {
				t.Fatal(err)
			}
			// The uninterrupted leg also writes durable generations:
			// the writes charge the virtual clock, so both legs must
			// pay them for the Results to be comparable.
			opt.Checkpoints = ckpt.NewMemDir()
			want := engine.New(sc.System(), sc.Driver(), opt).Run()

			for stop := sc.CkptInterval; stop < sc.Steps; stop++ {
				dir := ckpt.NewMemDir()
				first, _ := sc.EngineOptions(nil)
				first.Checkpoints = dir
				first.Steps = stop
				engine.New(sc.System(), sc.Driver(), first).Run()

				rest, _ := sc.EngineOptions(nil)
				rest.Checkpoints = dir
				r, report, err := engine.Resume(sc.System(), sc.Driver(), rest)
				if err != nil {
					t.Fatalf("stop=%d: %v (scenario %s)", stop, err, sc.Encode())
				}
				if len(report.Skipped) != 0 {
					t.Errorf("stop=%d: skipped generations %+v", stop, report.Skipped)
				}
				got := r.Run()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("stop=%d: resumed result differs (scenario %s)\n got: %+v\nwant: %+v",
						stop, sc.Encode(), got, want)
				}
			}
		})
	}
}
