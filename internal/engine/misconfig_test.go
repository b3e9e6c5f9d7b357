package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

// procFail is a one-event schedule (seed 7) failing the given
// processor late enough that a two-step run never reaches it.
func procFail(t *testing.T, proc int) *fault.Schedule {
	t.Helper()
	s, err := fault.NewSchedule(7, fault.Event{Kind: fault.ProcFailure, Proc: proc, Start: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMisconfigurationPanicsInNewErrorsInResume has one row per message
// the shared constructor rejects options with: New panics with the text,
// Resume — handed a store a well-configured run of the same shape wrote
// — returns it wrapped. A want ending in ": " is the prefix of an error
// that wraps an operating-system cause. One message has no row:
// "checkpoint does not match the driver/options", which neither entry
// point can reach (TestResumeMismatchPanics calls the constructor).
func TestMisconfigurationPanicsInNewErrorsInResume(t *testing.T) {
	rows := []struct {
		want string
		// store is the configuration of the run that wrote the store
		// Resume is pointed at; bad makes it the rejected one.
		store Options
		bad   func(*Options)
	}{
		{"engine: negative MaxLevel", Options{},
			func(o *Options) { o.MaxLevel = -1 }},
		{"engine: fault event 0 (proc-fail): proc 99 out of range for 2 processors", Options{Faults: procFail(t, 1)},
			func(o *Options) { o.Faults = procFail(t, 99) }},
		{`engine: UseMPX=true with Transport="": UseMPX is set exactly for tcp and worker`, Options{},
			func(o *Options) { o.UseMPX = true }},
		{"engine: Transport=worker forbids data-dependent control (GradientField/DataCheck)", Options{},
			func(o *Options) { o.UseMPX, o.Transport, o.DataCheck = true, TransportWorker, true }},
		{"engine: unknown Transport carrier-pigeon", Options{},
			func(o *Options) { o.Transport = "carrier-pigeon" }},
		{"engine: UseMPX requires WithData", Options{},
			func(o *Options) { o.UseMPX, o.Transport = true, TransportTCP }},
		{"engine: Reflux and UseMPX are not supported together", Options{WithData: true},
			func(o *Options) { o.UseMPX, o.Transport, o.Reflux = true, TransportTCP, true }},
		{"engine: Reflux requires WithData", Options{},
			func(o *Options) { o.Reflux = true }},
		{"engine: gradient flagging requires WithData", Options{},
			func(o *Options) { o.GradientField = "q" }},
		// A failing newTCPShards: no handshake finishes within 1ns.
		{"engine: mpx: handshake with shard 1: ", Options{WithData: true, UseMPX: true, Transport: TransportTCP},
			func(o *Options) { o.WireTimeout = time.Nanosecond }},
	}
	sys := func() *machine.System { return machine.WanPair(1, nil) }
	driver := func() workload.Driver { return workload.NewShockPool3D(8, 2) }
	for _, row := range rows {
		match := func(got string) bool {
			if strings.HasSuffix(row.want, ": ") {
				return strings.HasPrefix(got, row.want)
			}
			return got == row.want
		}
		opt := row.store
		opt.Steps, opt.MaxLevel, opt.CheckpointInterval, opt.Checkpoints = 2, 1, 1, ckpt.NewMemDir()
		New(sys(), driver(), opt).Run()
		if opt.Faults != nil {
			opt.Faults = procFail(t, 1) // a schedule is one run's
		}
		row.bad(&opt)

		func() {
			defer func() {
				if p, _ := recover().(string); !match(p) {
					t.Errorf("New panicked with %q, want %q", p, row.want)
				}
			}()
			New(sys(), driver(), opt)
		}()
		r, _, err := Resume(sys(), driver(), opt)
		if r != nil || err == nil || !strings.HasPrefix(err.Error(), "engine.Resume: ") ||
			!match(strings.TrimPrefix(err.Error(), "engine.Resume: ")) {
			t.Errorf("Resume = (%v, %v), want the error %q wrapped", r, err, row.want)
		}
	}

	// A store that cannot be opened: New's panic carries ckpt.Open's
	// error; Resume opens the store itself before it builds a runner and
	// reports the same cause under its own prefix.
	file := filepath.Join(t.TempDir(), "not-a-directory")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := Options{Steps: 1, Checkpoints: ckpt.OSDir(filepath.Join(file, "store"))}
	func() {
		defer func() {
			if p, _ := recover().(string); !strings.HasPrefix(p, "engine: ckpt.Open: ") {
				t.Errorf("New on an unopenable store panicked with %q", p)
			}
		}()
		New(sys(), driver(), opt)
	}()
	if _, _, err := Resume(sys(), driver(), opt); err == nil || !strings.HasPrefix(err.Error(), "engine.Resume: ckpt.Open: ") {
		t.Errorf("Resume on an unopenable store: %v", err)
	}
}
