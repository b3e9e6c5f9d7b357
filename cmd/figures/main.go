// Command figures regenerates every table and figure of the paper's
// evaluation section (Figures 3, 7, 8) plus the γ ablation, printing
// the measured series next to the paper's reported bands, and renders
// the structural figures (1, 2, 5, 6), the network probe model and the
// policy tournament.
//
// Usage:
//
//	figures                 # the full report
//	figures -fig 7          # one figure
//	figures -fig structure  # Figures 1, 2, 5 and 6 from real runs
//	figures -fig probe      # α/β probing under each traffic model
//	figures -fig tournament # every balancer policy on the pinned envelope set
//	figures -steps 20       # longer runs
//	figures -format md      # the same tables as markdown (with -fig too)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"samrdlb/internal/exp"
)

// figs maps each -fig value to the report it prints.
var figs = map[string]func(exp.Options, exp.Format) string{
	"all": exp.Report,
	"3":   exp.Fig3Report,
	"7": func(o exp.Options, f exp.Format) string {
		return exp.Fig7Report("AMR64", o, f) + "\n" + exp.Fig7Report("ShockPool3D", o, f)
	},
	"8": func(o exp.Options, f exp.Format) string {
		return exp.Fig8Report("AMR64", o, f) + "\n" + exp.Fig8Report("ShockPool3D", o, f)
	},
	"gamma":      exp.GammaReport,
	"ablations":  exp.AblationReport,
	"structure":  exp.StructureReport,
	"probe":      exp.ProbeReport,
	"tournament": exp.TournamentReport,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "all | 3 | 7 | 8 | gamma | ablations | structure | probe | tournament")
	format := fs.String("format", "text", "text | md (markdown tables)")
	steps := fs.Int("steps", 10, "level-0 steps per run (not -fig probe or tournament)")
	seed := fs.Int64("seed", 42, "workload and traffic seed (not -fig tournament: its envelopes are pinned, 20 from seed 40000)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	f := exp.Text
	switch *format {
	case "text":
	case "md":
		f = exp.Markdown
	default:
		fmt.Fprintf(stderr, "unknown format %q\n", *format)
		return 2
	}
	report, ok := figs[*fig]
	if !ok {
		fmt.Fprintf(stderr, "unknown figure %q\n", *fig)
		return 2
	}
	fmt.Fprint(stdout, report(exp.Options{Steps: *steps, Seed: *seed}, f))
	return 0
}
