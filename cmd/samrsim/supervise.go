package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/mpx"
	"samrdlb/internal/supervise"
	"samrdlb/internal/workload"
)

// workerCkptDir derives the per-worker durable store: each worker owns
// its own generation store under the shared -ckpt-dir, so a restarted
// worker resumes from the generations its own previous incarnation
// wrote.
func workerCkptDir(base string, shard int) string {
	if base == "" {
		return ""
	}
	return filepath.Join(base, fmt.Sprintf("worker-%d", shard))
}

// runWorkerMode is the hidden worker-process entry point (-worker-shard):
// host one processor group's shard of the engine behind a wire endpoint,
// under the supervisor listening at -worker-control. All run flags must
// equal the supervisor's (they do: the supervisor re-execs its own argv),
// so every worker replicates the identical deterministic control plane.
func runWorkerMode(sys *machine.System, driver workload.Driver, opt engine.Options,
	shard int, control string, detached, resume bool, wireTimeout time.Duration) int {
	if shard < 0 || shard >= sys.NumGroups() {
		fmt.Fprintf(os.Stderr, "worker: shard %d out of range for %d groups\n", shard, sys.NumGroups())
		return 2
	}
	err := supervise.RunWorker(supervise.WorkerConfig{
		Shard:       shard,
		NumShards:   sys.NumGroups(),
		ControlAddr: control,
		ShardOf:     sys.GroupOf,
		WireTimeout: wireTimeout,
		Detached:    detached,
		Build: func(ep *mpx.TCPEndpoint) (func(func(int)) (string, string, error), error) {
			opt.UseMPX = true
			opt.Transport = engine.TransportWorker
			opt.Worker = &engine.WorkerWire{Shard: shard, Endpoint: ep, Detached: detached || ep == nil}
			opt.WireTimeout = wireTimeout
			opt.CheckpointDir = workerCkptDir(opt.CheckpointDir, shard)
			var report func(int)
			opt.AfterStep = func(step int, _ *engine.Runner) {
				if report != nil {
					report(step)
				}
			}
			var r *engine.Runner
			if resume && opt.CheckpointDir != "" {
				var err error
				r, _, err = engine.Resume(sys, driver, opt)
				if err != nil {
					// The previous incarnation died before its first durable
					// write (or the store is damaged): determinism makes a
					// fresh replay byte-identical.
					fmt.Fprintf(os.Stderr, "worker %d: no usable checkpoint (%v); replaying fresh\n", shard, err)
					r = engine.New(sys, driver, opt)
				}
			} else {
				r = engine.New(sys, driver, opt)
			}
			return func(reportStep func(int)) (string, string, error) {
				report = reportStep
				res := r.Run()
				var out strings.Builder
				fmt.Fprintf(&out, "%s\n", res)
				if s := res.CheckpointSummary(); s != "" {
					fmt.Fprintln(&out, s)
				}
				if s := res.TransportSummary(); s != "" {
					fmt.Fprintln(&out, s)
				}
				return res.String(), out.String(), nil
			}, nil
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	return 0
}

// runSupervisor executes a supervised multi-process run: re-exec this
// binary once per processor group with the identical run flags plus the
// hidden worker flags, fire any scripted worker-kill events from the
// fault schedule, restart crashed workers from their checkpoints, and
// report the agreed result.
func runSupervisor(sys *machine.System, sched *fault.Schedule,
	wireTimeout time.Duration, maxRestarts int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "supervise: %v\n", err)
		return 2
	}
	var kills []fault.KillPoint
	if sched != nil {
		kills = sched.WorkerKills()
	}
	replay := fmt.Sprintf("%s %s", exe, strings.Join(os.Args[1:], " "))
	fmt.Fprintf(os.Stderr, "supervise: %d worker(s), %d scripted kill(s); replay: %s\n",
		sys.NumGroups(), len(kills), replay)
	mem := machine.NewMembership(sys, 1)
	baseArgs := os.Args[1:]
	rep, err := supervise.Run(supervise.Config{
		NumShards:   sys.NumGroups(),
		WireTimeout: wireTimeout,
		MaxRestarts: maxRestarts,
		Kills:       kills,
		Membership:  mem,
		ProcsOf:     sys.ProcsInGroup,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "supervise: "+format+"\n", args...)
		},
		Spawn: func(shard int, controlAddr string, detached, resume bool) *exec.Cmd {
			// The worker branch is evaluated before -supervise, so the
			// inherited -supervise flag in baseArgs is inert.
			args := append(append([]string{}, baseArgs...),
				"-worker-shard", strconv.Itoa(shard), "-worker-control", controlAddr)
			if detached {
				args = append(args, "-worker-detached")
			}
			if resume {
				args = append(args, "-worker-resume")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			cmd.Stdout = os.Stderr // workers report via the control channel
			return cmd
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "supervise: %v\nsupervise: repro: %s\n", err, replay)
		return 1
	}
	fmt.Printf("supervised run: %d worker(s) completed\n\n%s", rep.Completed, rep.Output)
	fmt.Printf("\nRecovery report:\n")
	fmt.Printf("worker restarts: %d (crashes %d, scripted kills %d, heartbeat misses %d, permanent failures %d)\n",
		rep.Restarts, rep.Crashes, rep.ScriptedKills, rep.HeartbeatMisses, rep.PermanentFailures)
	fmt.Printf("membership: %d suspected, %d presumed dead, %d rejoins, %d catch-ups\n",
		mem.SuspectTransitions, mem.SuspectedToDead, mem.Rejoins, mem.RejoinCatchups)
	return 0
}
