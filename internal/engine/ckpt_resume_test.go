package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/fault"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// resumeSteps is the uninterrupted run length of the byte-identity
// tests; interval 2 puts durable generations after steps 1, 3, 5, 7.
const resumeSteps = 8

// memDir and osDir give a test a store to resume from: in memory where
// only the resume is under test, on disk where the disk is too.
func memDir(*testing.T) ckpt.Dir  { return ckpt.NewMemDir() }
func osDir(t *testing.T) ckpt.Dir { return ckpt.OSDir(t.TempDir()) }

// testResumeIdentity is the tentpole acceptance check: a run
// interrupted after `stop` steps and resumed from its durable store
// must produce a Result byte-identical to the uninterrupted run's.
// newDir makes each run's store; mkDriver builds a fresh driver per
// run (drivers carry mutable state, e.g. particle sets); tweak
// customises each run's options the same way (constructing fresh fault
// schedules etc.).
func testResumeIdentity(t *testing.T, newDir func(*testing.T) ckpt.Dir, stops []int, mkDriver func() workload.Driver, tweak func(*Options)) {
	t.Helper()
	mkOpt := func(dir ckpt.Dir, steps int) Options {
		opt := Options{Steps: steps, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: dir}
		if tweak != nil {
			tweak(&opt)
		}
		return opt
	}
	whole := New(machine.WanPair(4, nil), mkDriver(), mkOpt(newDir(t), resumeSteps))
	want := whole.Run()

	for _, stop := range stops {
		dir := newDir(t)
		New(machine.WanPair(4, nil), mkDriver(), mkOpt(dir, stop)).Run()
		r, report, err := Resume(machine.WanPair(4, nil), mkDriver(), mkOpt(dir, resumeSteps))
		if err != nil {
			t.Fatalf("stop after %d steps: %v", stop, err)
		}
		if len(report.Skipped) != 0 {
			t.Errorf("stop=%d: unexpected skipped generations %+v", stop, report.Skipped)
		}
		got := r.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stop=%d: resumed result differs\n got: %+v\nwant: %+v", stop, got, want)
		}
		if whole.opt.WithData {
			assertSameFields(t, r.Hierarchy(), whole.Hierarchy())
		}
	}
}

func TestResumeByteIdenticalResult(t *testing.T) {
	testResumeIdentity(t, memDir, []int{2, 3, 4, 5, 6, 7},
		func() workload.Driver { return workload.NewShockPool3D(16, 2) }, nil)
}

func TestResumeByteIdenticalWithData(t *testing.T) {
	testResumeIdentity(t, memDir, []int{3, 6},
		func() workload.Driver { return workload.NewShockPool3D(16, 2) },
		func(o *Options) { o.WithData = true })
}

// TestResumeByteIdenticalWithReflux: a resumed runner starts with an
// empty plan cache and builds its interface plans from the restored
// structure. The regridding is driven by the solution's gradient, so
// the Result itself depends on every refluxed coarse cell.
func TestResumeByteIdenticalWithReflux(t *testing.T) {
	testResumeIdentity(t, memDir, []int{3, 6},
		func() workload.Driver { return workload.NewShockPool3D(16, 2) },
		func(o *Options) {
			o.WithData, o.Reflux, o.MaxLevel = true, true, 2
			o.GradientField, o.GradientThreshold = solver.FieldQ, 0.3
		})
}

func TestResumeByteIdenticalWithParticles(t *testing.T) {
	testResumeIdentity(t, memDir, []int{4},
		func() workload.Driver { return workload.NewAMR64(16, 2, 11) }, nil)
}

func TestResumeByteIdenticalWithSlowdownFaults(t *testing.T) {
	testResumeIdentity(t, memDir, []int{2, 5},
		func() workload.Driver { return workload.NewShockPool3D(16, 2) },
		func(o *Options) {
			sched, err := fault.NewSchedule(7,
				fault.Event{Kind: fault.ProcSlowdown, Proc: 2, Start: 0.001, End: 1e9, Factor: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			o.Faults = sched
		})
}

// TestResumeByteIdenticalAcrossCrash: processor 5 crashes before the
// first cut and is revived after it, before the later ones. A
// generation records who has failed only in the membership tracker's
// state, so the resumed run must take both its health vector and its
// failed-processor count from there. In the second schedule the crash
// strikes after the cuts, so the resumed run rewinds to the recovery
// point its restored generation installed, which must be the one the
// uninterrupted run took at that boundary.
func TestResumeByteIdenticalAcrossCrash(t *testing.T) {
	bt := boundaryClocks(t, resumeSteps)
	schedule := func(events ...fault.Event) func(*Options) {
		return func(o *Options) {
			sched, err := fault.NewSchedule(7, events...)
			if err != nil {
				t.Fatal(err)
			}
			o.Faults = sched
		}
	}
	withCrash := schedule(
		fault.Event{Kind: fault.ProcFailure, Proc: 5, Start: (bt[0] + bt[1]) / 2},
		fault.Event{Kind: fault.ProcRecovery, Proc: 5, Start: (bt[5] + bt[6]) / 2})
	mkDriver := func() workload.Driver { return workload.NewShockPool3D(16, 2) }
	testResumeIdentity(t, osDir, []int{4, 6, 7}, mkDriver, withCrash)
	testResumeIdentity(t, memDir, []int{4, 5, 6, 7}, mkDriver,
		schedule(fault.Event{Kind: fault.ProcFailure, Proc: 5, Start: (bt[4] + bt[5]) / 2}))

	// The first cut really is inside the outage: the runner resumed
	// from it holds processor 5 failed and dead.
	opt := Options{Steps: 4, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: osDir(t)}
	withCrash(&opt)
	New(machine.WanPair(4, nil), mkDriver(), opt).Run()
	opt.Steps = resumeSteps
	withCrash(&opt)
	r, _, err := Resume(machine.WanPair(4, nil), mkDriver(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !r.failed(5) || r.sys.Alive(5) || r.counters().FailedProcs != 1 {
		t.Errorf("resumed inside the outage: failed=%v alive=%v FailedProcs=%d, want true/false/1",
			r.failed(5), r.sys.Alive(5), r.counters().FailedProcs)
	}
	if res := r.Run(); res.FailedProcs != 0 || res.Rejoins != 1 {
		t.Errorf("after the revival: FailedProcs=%d Rejoins=%d, want 0/1", res.FailedProcs, res.Rejoins)
	}
}

// TestResumeSkipsCorruptNewestGeneration corrupts the newest on-disk
// generation after the interruption: Resume must fall back to the
// previous generation, report the skip, and still converge to the
// byte-identical Result (the extra replayed steps are deterministic).
func TestResumeSkipsCorruptNewestGeneration(t *testing.T) {
	mkOpt := func(dir ckpt.Dir, steps int) Options {
		return Options{Steps: steps, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: dir}
	}
	want := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), mkOpt(ckpt.NewMemDir(), resumeSteps)).Run()

	dir := t.TempDir()
	New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), mkOpt(ckpt.OSDir(dir), 6)).Run()
	names, err := filepath.Glob(filepath.Join(dir, "gen-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("generations on disk: %v (err %v)", names, err)
	}
	sort.Strings(names)
	newest := names[len(names)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, report, err := Resume(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), mkOpt(ckpt.OSDir(dir), resumeSteps))
	if err != nil {
		t.Fatalf("resume must fall back past the corrupt generation: %v", err)
	}
	if len(report.Skipped) != 1 {
		t.Errorf("skipped = %+v, want exactly the corrupt newest generation", report.Skipped)
	}
	got := r.Run()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed-after-corruption result differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestEveryCounterSurvivesResume takes the run-state record through a
// durable generation into a fresh runner without naming its fields:
// every field of metrics.Counters is filled by reflection with a
// distinct non-zero value, so a counter added later that some path
// between snapshotMeta and restoreFromMeta forgets fails here — also
// the counters the pinned resume scenarios happen to leave at zero.
func TestEveryCounterSurvivesResume(t *testing.T) {
	mk := func() *Runner {
		sched, err := fault.NewSchedule(7)
		if err != nil {
			t.Fatal(err)
		}
		return New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), Options{
			Steps: 4, MaxLevel: 1, Checkpoints: ckpt.NewMemDir(), Faults: sched,
		})
	}
	src := mk()
	v := reflect.ValueOf(&src.cnt).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		case reflect.Float64:
			f.SetFloat(float64(100+i) + 0.5)
		default:
			t.Fatalf("Counters.%s has kind %s: teach this test to fill it", v.Type().Field(i).Name, f.Kind())
		}
	}
	// FailedProcs is derived from the membership tracker, which travels
	// beside the counters.
	src.memb.Crash(1)
	want := src.counters()

	store, err := ckpt.OpenDir(ckpt.NewMemDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write(src.snapshotMeta(0), []byte("hierarchy"), 0, 0); err != nil {
		t.Fatal(err)
	}
	meta, _, _, err := store.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := mk()
	if err := dst.restoreFromMeta(meta); err != nil {
		t.Fatal(err)
	}
	got := dst.counters()
	if dst.sys.Alive(1) || !dst.sys.Alive(0) {
		t.Errorf("resume must re-derive health from the tracker: proc 1 alive=%v, proc 0 alive=%v",
			dst.sys.Alive(1), dst.sys.Alive(0))
	}

	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		w, g := wv.Field(i).Interface(), gv.Field(i).Interface()
		if wv.Field(i).IsZero() {
			t.Errorf("Counters.%s is zero in the source run: its round trip proves nothing", name)
		}
		if name == "DiskCheckpoints" {
			// A generation describes the world in which its own write
			// succeeded.
			w = w.(int) + 1
		}
		if g != w {
			t.Errorf("Counters.%s = %v after the resume, want %v", name, g, w)
		}
	}
}

// TestRecoveryWithBitFlippedGeneration: a processor failure strikes
// after an injected disk fault bit-flipped a durable generation. The
// run recovers from its in-memory checkpoint, and the lying disk is
// not counted as a write error.
func TestRecoveryWithBitFlippedGeneration(t *testing.T) {
	// Probe run (store enabled, empty schedule) records the boundary
	// clocks so the fault windows land where intended.
	probe, err := fault.NewSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	var bt []float64
	New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: ckpt.NewMemDir(),
		Faults:    probe,
		AfterStep: func(step int, rr *Runner) { bt = append(bt, rr.Clock().Now()) },
	}).Run()

	// Bit-flip the durable write at the step-3 boundary; fail a
	// processor inside step 5.
	sched, err := fault.NewSchedule(7,
		fault.Event{Kind: fault.DiskBitFlip, Start: (bt[1] + bt[2]) / 2, End: (bt[3] + bt[4]) / 2},
		fault.Event{Kind: fault.ProcFailure, Proc: 5, Start: (bt[4] + bt[5]) / 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	res := New(machine.WanPair(4, nil), workload.NewShockPool3D(16, 2), Options{
		Steps: 8, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: ckpt.NewMemDir(),
		Faults: sched,
	}).Run()
	if res.Recoveries != 1 || res.FailedProcs != 1 {
		t.Errorf("recoveries=%d failed=%d, want 1/1", res.Recoveries, res.FailedProcs)
	}
	if res.DiskCheckpointErrors != 0 {
		t.Errorf("a bit flip is a lying disk, not a write error: errors=%d", res.DiskCheckpointErrors)
	}
}

// TestResumeErrors: configuration mismatches surface as errors, never
// panics.
func TestResumeErrors(t *testing.T) {
	driver := func() workload.Driver { return workload.NewShockPool3D(16, 2) }
	if _, _, err := Resume(machine.WanPair(4, nil), driver(), Options{Steps: 8, MaxLevel: 1}); err == nil {
		t.Error("Resume without Checkpoints must error")
	}
	if _, _, err := Resume(machine.WanPair(4, nil), driver(),
		Options{Steps: 8, MaxLevel: 1, Checkpoints: ckpt.NewMemDir()}); err == nil {
		t.Error("Resume from an empty store must error")
	}

	dir := ckpt.NewMemDir()
	New(machine.WanPair(4, nil), driver(), Options{
		Steps: 4, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: dir,
	}).Run()
	if _, _, err := Resume(machine.WanPair(2, nil), driver(),
		Options{Steps: 8, MaxLevel: 1, Checkpoints: dir}); err == nil {
		t.Error("processor-count mismatch must be rejected")
	}
	sched, err := fault.NewSchedule(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(machine.WanPair(4, nil), driver(),
		Options{Steps: 8, MaxLevel: 1, Checkpoints: dir, Faults: sched}); err == nil {
		t.Error("fault-configuration mismatch must be rejected")
	}
	if _, _, err := Resume(machine.WanPair(4, nil), driver(),
		Options{Steps: 8, MaxLevel: 1, Checkpoints: dir, WithData: true}); err == nil {
		t.Error("WithData mismatch must be rejected")
	}
}

// TestResumeRefusesAnotherDomain: Resume checks a restored hierarchy's
// shape against the driver and options per generation, so a store a
// 16³ run wrote is refused whole by an 8³ driver, each generation
// skipped with a reason naming the checkpoint's domain.
func TestResumeRefusesAnotherDomain(t *testing.T) {
	opt := Options{Steps: 4, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: ckpt.NewMemDir()}
	New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), opt).Run()
	_, report, err := Resume(machine.WanPair(2, nil), workload.NewShockPool3D(8, 2), opt)
	want := fmt.Sprintf("checkpoint domain %v", geom.UnitCube(16))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume with an 8³ driver: %v, want a refusal saying %q", err, want)
	}
	if report == nil || len(report.Skipped) != 2 {
		t.Fatalf("both generations should be skipped: %+v", report)
	}
	for _, sk := range report.Skipped {
		if !strings.Contains(sk.Reason, want) {
			t.Errorf("generation %d skipped for %q, want %q", sk.Gen, sk.Reason, want)
		}
	}
}

// TestResumeRefusesAnotherRunsIdentity: a generation stamped with one
// run's identity is skipped by a run with another, the reason naming
// the first key that differs; a side that states no identity (library
// callers, generations of identity-less runs) is not compared.
func TestResumeRefusesAnotherRunsIdentity(t *testing.T) {
	driver := func() workload.Driver { return workload.NewShockPool3D(16, 2) }
	opt := func(dir ckpt.Dir, spec string) Options {
		return Options{Steps: 4, MaxLevel: 1, CheckpointInterval: 2, Checkpoints: dir, Spec: spec}
	}
	stamped, bare := ckpt.NewMemDir(), ckpt.NewMemDir()
	New(machine.WanPair(4, nil), driver(), opt(stamped, "seed=42 policy=distributed gamma=0")).Run()
	New(machine.WanPair(4, nil), driver(), opt(bare, "")).Run()

	for spec, key := range map[string]string{
		"seed=42 policy=knapsack gamma=0":          "checkpoint has policy=distributed, this run policy=knapsack",
		"seed=42 policy=distributed gamma=8":       "checkpoint has gamma=0, this run gamma=8",
		"seed=42 policy=distributed":               "checkpoint has gamma=0, this run no further key",
		"seed=42 policy=distributed gamma=0 eps=1": "checkpoint has no further key, this run eps=1",
	} {
		_, report, err := Resume(machine.WanPair(4, nil), driver(), opt(stamped, spec))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("resume as %q: %v, want a refusal saying %q", spec, err, key)
		}
		if report == nil || len(report.Skipped) != 2 {
			t.Errorf("resume as %q: both generations should be skipped: %+v", spec, report)
		}
	}
	for _, c := range []struct {
		dir  ckpt.Dir
		spec string
	}{
		{stamped, "seed=42 policy=distributed gamma=0"},
		{stamped, ""},
		{bare, "seed=1 policy=knapsack gamma=8"},
	} {
		if _, _, err := Resume(machine.WanPair(4, nil), driver(), opt(c.dir, c.spec)); err != nil {
			t.Errorf("resume as %q: %v", c.spec, err)
		}
	}
}
