// Checkpoint/restart: long SAMR campaigns rarely finish in one
// sitting. The engine's durable store (internal/ckpt) writes a
// CRC32-framed generation every checkpoint interval; a run killed at
// any point resumes from the newest usable generation and produces a
// result identical to an uninterrupted run — even when the newest
// generation on disk has been corrupted.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"samrdlb/internal/ckpt"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

func opts(dir string, steps int) engine.Options {
	return engine.Options{
		Steps: steps, MaxLevel: 2, WithData: true,
		CheckpointInterval: 2, Checkpoints: ckpt.OSDir(dir),
	}
}

func main() {
	base, err := os.MkdirTemp("", "samrdlb-ckpt-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(base)

	// The uninterrupted reference: eight steps, a durable generation
	// every second step.
	full := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2),
		opts(filepath.Join(base, "full"), 8)).Run()
	fmt.Printf("uninterrupted: %s\n", full)

	// The "crashed" campaign: the same run killed after four steps.
	dir := filepath.Join(base, "crashed")
	engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), opts(dir, 4)).Run()
	gens, _ := filepath.Glob(filepath.Join(dir, "gen-*.ckpt"))
	fmt.Printf("interrupted after 4 steps; %d generations on disk\n", len(gens))

	// Resume and finish: the result must match to the last bit.
	r, report, err := engine.Resume(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2),
		opts(dir, 8))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	resumed := r.Run()
	fmt.Printf("resumed from generation %d (step %d): %s\n", report.Gen, report.Step, resumed)
	if resumed.Identity() != full.Identity() {
		fmt.Println("MISMATCH: resumed run diverged from the uninterrupted run")
		os.Exit(1)
	}
	fmt.Println("resume verified: results identical")

	// Corrupt the newest generation (a flipped byte, as a failing disk
	// would leave it) and resume: the store's CRC framing detects it
	// and falls back to the previous generation. A fresh "crashed"
	// campaign keeps this demo independent of the resume above, which
	// wrote further generations into its directory.
	dir2 := filepath.Join(base, "corrupt")
	engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), opts(dir2, 4)).Run()
	gens, _ = filepath.Glob(filepath.Join(dir2, "gen-*.ckpt"))
	sort.Strings(gens)
	newest := gens[len(gens)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r2, report2, err := engine.Resume(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2),
		opts(dir2, 8))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, sk := range report2.Skipped {
		fmt.Printf("skipped generation %d: %s\n", sk.Gen, sk.Reason)
	}
	res2 := r2.Run()
	fmt.Printf("resumed past the corruption from generation %d (step %d)\n", report2.Gen, report2.Step)
	if res2.Identity() != full.Identity() {
		fmt.Println("MISMATCH after corruption fallback")
		os.Exit(1)
	}
	fmt.Println("corruption tolerated: older generation restored, results still identical")
}
