package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/mpx"
	"samrdlb/internal/scenario"
	"samrdlb/internal/supervise"
)

// forwardFlags says what -supervise does with each flag that is not a
// run flag (those reach the workers inside the spec): true forwards it
// to every worker, false keeps it in the parent. A flag that is not
// listed means something in a single process only, and setting it next
// to -supervise is refused — no flag is silently dropped.
var forwardFlags = map[string]bool{
	"ckpt-dir": true, "wire-timeout": true,
	"supervise": false, "scenario": false, "max-restarts": false,
	"cpuprofile": false, "memprofile": false,
}

// workerArgs builds the argv every worker is started with — the
// canonical spec plus the forwarded flags — so all workers replicate
// the identical deterministic control plane.
func workerArgs(fs *flag.FlagSet, spec *scenario.Scenario) ([]string, error) {
	switch {
	case !spec.WithData:
		return nil, fmt.Errorf("-supervise requires -data (worker shards carry field data)")
	case spec.Check&scenario.CheckData != 0:
		return nil, fmt.Errorf("-supervise: check=data is data-dependent and forbidden on worker shards")
	case spec.ResumeCut >= 0:
		return nil, fmt.Errorf("-supervise: cut=%d interrupts an in-process run; workers resume after a kill instead", spec.ResumeCut)
	}
	args := []string{"-scenario", spec.Encode()}
	var refused error
	fs.Visit(func(f *flag.Flag) {
		forward, listed := forwardFlags[f.Name]
		switch {
		case scenario.IsRunFlag(f.Name):
		case !listed:
			refused = fmt.Errorf("-%s means nothing across worker processes: not available with -supervise", f.Name)
		case forward:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args, refused
}

// runWorker is the hidden worker-process entry point (-worker-shard):
// host one processor group's shard of the engine behind a wire endpoint,
// under the supervisor listening at -worker-control.
func runWorker(f *flags, spec *scenario.Scenario) int {
	sys := spec.System()
	shard := f.workerShard
	if shard >= sys.NumGroups() {
		fmt.Fprintf(f.stderr, "worker: shard %d out of range for %d groups\n", shard, sys.NumGroups())
		return 2
	}
	err := supervise.RunWorker(supervise.WorkerConfig{
		Shard:       shard,
		ControlAddr: f.workerControl,
		ShardOf:     sys.GroupOf,
		WireTimeout: f.wireTimeout,
		Detached:    f.workerRestart,
		Build: func(ep *mpx.TCPEndpoint) (func(func(int)) (string, string, error), error) {
			var report func(int)
			attach, checker := f.attach(spec, func(o *engine.Options) {
				o.UseMPX = true
				o.Transport = engine.TransportWorker
				o.Worker = ep
				if f.ckptDir != "" {
					// Each worker owns its own store under the shared -ckpt-dir, so
					// a restarted worker resumes from the generations its own
					// previous incarnation wrote.
					o.Checkpoints = ckpt.OSDir(filepath.Join(f.ckptDir, fmt.Sprintf("worker-%d", shard)))
				}
				o.AfterStep = func(step int, _ *engine.Runner) {
					if report != nil {
						report(step)
					}
				}
			})
			r, _, err := spec.Start(f.workerRestart, attach)
			if err != nil && f.workerRestart {
				// The previous incarnation died before its first durable
				// write (or the store is damaged): determinism makes a
				// fresh replay byte-identical.
				fmt.Fprintf(f.stderr, "worker %d: no usable checkpoint (%v); replaying fresh\n", shard, err)
				r, _, err = spec.Start(false, attach)
			}
			if err != nil {
				return nil, err
			}
			return func(reportStep func(int)) (string, string, error) {
				report = reportStep
				res := r.Run()
				if checker != nil {
					if err := checker.Err(); err != nil {
						return "", "", fmt.Errorf("invariants: %w", err)
					}
				}
				var out strings.Builder
				fmt.Fprintf(&out, "%s\n", res)
				if s := res.CheckpointSummary(); s != "" {
					fmt.Fprintln(&out, s)
				}
				if s := res.TransportSummary(); s != "" {
					fmt.Fprintln(&out, s)
				}
				return res.Identity(), out.String(), nil
			}, nil
		},
	})
	if err != nil {
		fmt.Fprintf(f.stderr, "%v\n", err)
		return 1
	}
	return 0
}

// runSupervisor executes a supervised multi-process run: re-exec this
// binary once per processor group with workerArgs plus the hidden
// worker flags, fire any scripted worker-kill events from the fault
// schedule, restart crashed workers from their checkpoints, and report
// the agreed result.
func runSupervisor(f *flags, spec *scenario.Scenario, args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(f.stderr, "supervise: %v\n", err)
		return 2
	}
	sys := spec.System()
	var kills []fault.KillPoint
	if opt, _ := spec.EngineOptions(nil); opt.Faults != nil { // Validate has built it once already
		kills = opt.Faults.WorkerKills()
	}
	replay := fmt.Sprintf("%s -supervise -scenario '%s' %s", exe, spec.Encode(), strings.Join(args[2:], " "))
	fmt.Fprintf(f.stderr, "supervise: %d worker(s), %d scripted kill(s); replay: %s\n",
		sys.NumGroups(), len(kills), replay)
	mem := machine.NewMembership(sys, 1)
	rep, err := supervise.Run(supervise.Config{
		NumShards:   sys.NumGroups(),
		WireTimeout: f.wireTimeout,
		MaxRestarts: f.maxRestarts,
		Kills:       kills,
		Membership:  mem,
		ProcsOf:     sys.ProcsInGroup,
		Log: func(format string, args ...any) {
			fmt.Fprintf(f.stderr, "supervise: "+format+"\n", args...)
		},
		Spawn: func(shard int, controlAddr string, restart bool) *exec.Cmd {
			args := append(append([]string{}, args...),
				"-worker-shard", strconv.Itoa(shard), "-worker-control", controlAddr)
			if restart {
				args = append(args, "-worker-restart")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = f.stderr
			cmd.Stdout = f.stderr // workers report via the control channel
			return cmd
		},
	})
	if err != nil {
		fmt.Fprintf(f.stderr, "supervise: %v\nsupervise: repro: %s\n", err, replay)
		return 1
	}
	fmt.Fprintf(f.stdout, "supervised run: %d worker(s) completed\n\n%s", rep.Completed, rep.Output)
	fmt.Fprintf(f.stdout, "\nRecovery report:\n")
	fmt.Fprintf(f.stdout, "worker restarts: %d (crashes %d, scripted kills %d, heartbeat misses %d, permanent failures %d)\n",
		rep.Restarts, rep.Crashes, rep.ScriptedKills, rep.HeartbeatMisses, rep.PermanentFailures)
	fmt.Fprintf(f.stdout, "membership: %d suspected, %d presumed dead, %d rejoins, %d catch-ups\n",
		mem.SuspectTransitions, mem.SuspectedToDead, mem.Rejoins, mem.RejoinCatchups)
	return 0
}
