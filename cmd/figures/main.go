// Command figures regenerates every table and figure of the paper's
// evaluation section (Figures 3, 7, 8) plus the γ ablation, printing
// the measured series next to the paper's reported bands.
//
// Usage:
//
//	figures                 # the full report
//	figures -fig 7          # one figure
//	figures -steps 20       # longer runs
//	figures -format md      # the same tables as markdown (with -fig too)
package main

import (
	"flag"
	"fmt"
	"os"

	"samrdlb/internal/exp"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "all | 3 | 7 | 8 | gamma | ablations")
		format = flag.String("format", "text", "text | md (markdown tables)")
		steps  = flag.Int("steps", 10, "level-0 steps per run")
		seed   = flag.Int64("seed", 42, "workload and traffic seed")
	)
	flag.Parse()

	o := exp.Options{Steps: *steps, Seed: *seed}
	f := exp.Text
	switch *format {
	case "text":
	case "md":
		f = exp.Markdown
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
	switch *fig {
	case "all":
		fmt.Print(exp.Report(o, f))
	case "3":
		fmt.Print(exp.Fig3Report(o, f))
	case "7":
		fmt.Print(exp.Fig7Report("AMR64", o, f), "\n", exp.Fig7Report("ShockPool3D", o, f))
	case "8":
		fmt.Print(exp.Fig8Report("AMR64", o, f), "\n", exp.Fig8Report("ShockPool3D", o, f))
	case "gamma":
		fmt.Print(exp.GammaReport(o, f))
	case "ablations":
		fmt.Print(exp.AblationReport(o, f))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
