package supervise

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/mpx"
	"samrdlb/internal/workload"
)

// The chaos tests re-exec this test binary as the worker processes: a
// spawned copy sees the env marker and runs workerMain instead of the
// test suite. Chaos triggers (self-SIGKILL mid-checkpoint, self-
// SIGSTOP at a step) arrive the same way and are dropped from the env
// on restarts, so a resumed worker never re-fires them.
const (
	envShard     = "SAMR_SUPERVISE_WORKER"
	envControl   = "SAMR_SUPERVISE_CONTROL"
	envCkpt      = "SAMR_SUPERVISE_CKPT"
	envRestart   = "SAMR_SUPERVISE_RESTART"
	envWT        = "SAMR_SUPERVISE_WT"
	envKillCkpt  = "SAMR_SUPERVISE_KILL_AT_CKPT_SEQ"
	envStopStep  = "SAMR_SUPERVISE_STOP_AT_STEP"
	envStepDelay = "SAMR_SUPERVISE_STEP_DELAY_MS"
)

func TestMain(m *testing.M) {
	if os.Getenv(envShard) != "" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// testRunOptions is the chaos scenario every worker (and the in-process
// baseline) runs: 6 steps with a durable checkpoint generation every 2,
// written to dir.
func testRunOptions(ep *mpx.TCPEndpoint, dir ckpt.Dir) engine.Options {
	return engine.Options{
		Steps: 6, MaxLevel: 1, WithData: true, UseMPX: true,
		Transport:          engine.TransportWorker,
		Worker:             ep,
		Checkpoints:        dir,
		CheckpointInterval: 2,
		CheckpointKeep:     3,
	}
}

// killAtWrite is a checkpoint directory whose process SIGKILLs itself
// on the killSeq-th WriteFile (counting from 0), before a byte of that
// generation is written. The chaos plans inject no disk faults, so
// Store.Write calls WriteFile exactly once per durable write attempt;
// and a kill trigger reaches only a worker's first incarnation, so the
// calls this process counts are the engine's write-attempt sequence.
type killAtWrite struct {
	ckpt.Dir
	killSeq, calls int
}

func (d *killAtWrite) WriteFile(name string, data []byte) error {
	d.calls++
	if d.calls > d.killSeq {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // not reached: SIGKILL is immediate
	}
	return d.Dir.WriteFile(name, data)
}

func testDriver() workload.Driver { return workload.NewShockPool3D(16, 2) }

// workerMain is the re-exec'd worker process body.
func workerMain() int {
	shard, _ := strconv.Atoi(os.Getenv(envShard))
	wt, _ := time.ParseDuration(os.Getenv(envWT))
	restart := os.Getenv(envRestart) == "1"
	var dir ckpt.Dir = ckpt.OSDir(filepath.Join(os.Getenv(envCkpt), fmt.Sprintf("worker-%d", shard)))
	stopStep, delayMS := -1, 0
	if v := os.Getenv(envKillCkpt); v != "" {
		killSeq, _ := strconv.Atoi(v)
		dir = &killAtWrite{Dir: dir, killSeq: killSeq}
	}
	if v := os.Getenv(envStopStep); v != "" {
		stopStep, _ = strconv.Atoi(v)
	}
	if v := os.Getenv(envStepDelay); v != "" {
		delayMS, _ = strconv.Atoi(v)
	}

	sys := machine.WanPair(2, nil)
	err := RunWorker(WorkerConfig{
		Shard:       shard,
		NumShards:   sys.NumGroups(),
		ControlAddr: os.Getenv(envControl),
		ShardOf:     sys.GroupOf,
		WireTimeout: wt,
		Detached:    restart,
		Build: func(ep *mpx.TCPEndpoint) (func(func(int)) (string, string, error), error) {
			var report func(int)
			stopped := false
			opt := testRunOptions(ep, dir)
			opt.AfterStep = func(step int, _ *engine.Runner) {
				if report != nil {
					report(step)
				}
				if delayMS > 0 {
					// Hold each step open so a scripted kill fired on the
					// step report lands before the run can race to the end.
					time.Sleep(time.Duration(delayMS) * time.Millisecond)
				}
				if stopStep >= 0 && step >= stopStep && !stopped {
					stopped = true
					syscall.Kill(os.Getpid(), syscall.SIGSTOP)
				}
			}
			var r *engine.Runner
			var err error
			if restart {
				r, _, err = engine.Resume(sys, testDriver(), opt)
				if err != nil {
					// No usable generation: the worker died before its first
					// durable write. Determinism makes a fresh replay exact.
					fmt.Fprintf(os.Stderr, "worker %d: no checkpoint to resume (%v); starting fresh\n", shard, err)
					r = engine.New(sys, testDriver(), opt)
				}
			} else {
				r = engine.New(sys, testDriver(), opt)
			}
			return func(reportStep func(int)) (string, string, error) {
				report = reportStep
				res := r.Run()
				return res.Identity(), res.String(), nil
			}, nil
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// baselineFingerprint runs the identical scenario fault-free in this
// process (detached = the plain deterministic path) and returns the
// Result fingerprint every supervised run must reproduce.
func baselineFingerprint(t *testing.T) string {
	t.Helper()
	opt := testRunOptions(nil, ckpt.OSDir(filepath.Join(t.TempDir(), "worker-0")))
	r := engine.New(machine.WanPair(2, nil), testDriver(), opt)
	return r.Run().Identity()
}

// chaosPlan configures one supervised chaos run.
type chaosPlan struct {
	kills       []fault.KillPoint
	killCkptSeq map[int]int // shard -> self-SIGKILL at this durable write attempt
	stopStep    map[int]int // shard -> self-SIGSTOP after this step
	stepDelayMS int
	wireTimeout time.Duration
	maxRestarts int
}

// runSupervised executes one supervised run with re-exec'd workers.
func runSupervised(t *testing.T, plan chaosPlan) (Report, *machine.Membership) {
	t.Helper()
	base := t.TempDir()
	sys := machine.WanPair(2, nil)
	mem := machine.NewMembership(sys, 1)
	rep, err := Run(Config{
		NumShards:   sys.NumGroups(),
		WireTimeout: plan.wireTimeout,
		MaxRestarts: plan.maxRestarts,
		Kills:       plan.kills,
		Membership:  mem,
		ProcsOf:     sys.ProcsInGroup,
		Log: func(format string, args ...any) {
			t.Logf("supervisor: "+format, args...)
		},
		Spawn: func(shard int, controlAddr string, restart bool) *exec.Cmd {
			// -test.run=^$ guards against ever re-running the suite if the
			// env marker were lost: the copy would run zero tests.
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			env := append(os.Environ(),
				envShard+"="+strconv.Itoa(shard),
				envControl+"="+controlAddr,
				envCkpt+"="+base,
				envWT+"="+plan.wireTimeout.String(),
			)
			if restart {
				env = append(env, envRestart+"=1")
			}
			if plan.stepDelayMS > 0 {
				env = append(env, envStepDelay+"="+strconv.Itoa(plan.stepDelayMS))
			}
			// Chaos triggers fire only on a worker's first incarnation —
			// a restart must recover, not re-injure itself.
			if !restart {
				if seq, ok := plan.killCkptSeq[shard]; ok {
					env = append(env, envKillCkpt+"="+strconv.Itoa(seq))
				}
				if st, ok := plan.stopStep[shard]; ok {
					env = append(env, envStopStep+"="+strconv.Itoa(st))
				}
			}
			cmd.Env = env
			cmd.Stderr = os.Stderr
			return cmd
		},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
	}
	return rep, mem
}

// TestSupervisedCleanRunMatchesBaseline pins the no-chaos contract:
// two worker OS processes over a real wire complete with exactly the
// single-process Result and nothing crashes or restarts.
func TestSupervisedCleanRunMatchesBaseline(t *testing.T) {
	want := baselineFingerprint(t)
	rep, _ := runSupervised(t, chaosPlan{wireTimeout: 2 * time.Second})
	if rep.Completed != 2 {
		t.Fatalf("completed %d/2 workers", rep.Completed)
	}
	if rep.Crashes != 0 || rep.Restarts != 0 || rep.HeartbeatMisses != 0 {
		t.Errorf("clean run reports chaos: %+v", rep)
	}
	if rep.Fingerprint != want {
		t.Errorf("supervised result diverged from baseline:\n got: %s\nwant: %s", rep.Fingerprint, want)
	}
}

// TestSupervisedScriptedKillsRestartFromCheckpoint is the tentpole
// chaos test: worker 1 is SIGKILLed at two distinct scripted steps;
// each death must be detected, the worker restarted (resuming from its
// latest durable generation when one exists), and the completed run's
// Result must be byte-identical to the fault-free baseline.
func TestSupervisedScriptedKillsRestartFromCheckpoint(t *testing.T) {
	want := baselineFingerprint(t)
	rep, mem := runSupervised(t, chaosPlan{
		kills:       []fault.KillPoint{{Group: 1, Step: 1}, {Group: 1, Step: 3}},
		stepDelayMS: 150,
		wireTimeout: 2 * time.Second,
		maxRestarts: 3,
	})
	if rep.ScriptedKills != 2 {
		t.Errorf("fired %d/2 scripted kills", rep.ScriptedKills)
	}
	if rep.Crashes != 2 || rep.Restarts != 2 {
		t.Errorf("want 2 crashes and 2 restarts, got %+v", rep)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d/2 workers (report %+v)", rep.Completed, rep)
	}
	if rep.Fingerprint != want {
		t.Errorf("chaos result diverged from baseline:\n got: %s\nwant: %s", rep.Fingerprint, want)
	}
	if mem.Rejoins == 0 {
		t.Error("worker crashes left no rejoin evidence in membership")
	}
}

// TestSupervisedMidCheckpointKillResumes kills worker 1 from inside
// its store's directory write (durable write attempt 2, before a byte
// of it lands), pinning that a death mid-checkpoint leaves the store
// on its previous intact generation and the restart resumes from it
// byte-identically.
func TestSupervisedMidCheckpointKillResumes(t *testing.T) {
	want := baselineFingerprint(t)
	rep, _ := runSupervised(t, chaosPlan{
		killCkptSeq: map[int]int{1: 2},
		wireTimeout: 2 * time.Second,
		maxRestarts: 3,
	})
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Errorf("want 1 crash and 1 restart, got %+v", rep)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d/2 workers (report %+v)", rep.Completed, rep)
	}
	if rep.Fingerprint != want {
		t.Errorf("mid-checkpoint kill diverged from baseline:\n got: %s\nwant: %s", rep.Fingerprint, want)
	}
}

// TestSupervisedStoppedWorkerDetectedByHeartbeatMiss pins the second
// crash-detection prong: a SIGSTOPped worker never exits, so only the
// missed control heartbeats can expose it. The supervisor must declare
// it dead within the control deadline and SIGKILL+restart it, while
// the stopped peer's silence surfaces on the survivor's wire as a
// deadline expiry (never an indefinite block) — and the completed run
// still matches the baseline.
func TestSupervisedStoppedWorkerDetectedByHeartbeatMiss(t *testing.T) {
	want := baselineFingerprint(t)
	rep, _ := runSupervised(t, chaosPlan{
		stopStep:    map[int]int{1: 2},
		wireTimeout: time.Second,
		maxRestarts: 3,
	})
	if rep.HeartbeatMisses == 0 {
		t.Error("stopped worker was never declared dead by heartbeat miss")
	}
	if rep.Restarts == 0 {
		t.Error("stopped worker was never restarted")
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d/2 workers (report %+v)", rep.Completed, rep)
	}
	if rep.Fingerprint != want {
		t.Errorf("stopped-worker run diverged from baseline:\n got: %s\nwant: %s", rep.Fingerprint, want)
	}
}
