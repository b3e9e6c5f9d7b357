package exp

import (
	"fmt"
	"strings"

	"samrdlb/internal/metrics"
)

// Format is how a report renders its tables. Every report builds each
// metrics.Table once; the format only picks the table's rendering.
type Format int

const (
	// Text is aligned columns for a terminal.
	Text Format = iota
	// Markdown is GitHub tables under "###" headings: the tables of
	// EXPERIMENTS.md are a run of `figures -format md`.
	Markdown
)

// section renders one table followed by the line that reads it against
// the paper ("" for none). A markdown table runs until a blank line, so
// there the note needs one in front.
func (f Format) section(t *metrics.Table, note string) string {
	if f != Markdown {
		return t.String() + note
	}
	if note != "" {
		note = "\n" + note
	}
	return t.Markdown() + note
}

// Report renders the full evaluation — every figure and ablation with
// its paper-vs-measured comparison. cmd/figures prints it.
func Report(o Options, f Format) string {
	o.setDefaults()
	head := "SAMR distributed DLB reproduction — evaluation report\n"
	if f == Markdown {
		head = "# " + head + "\n"
	}
	head += fmt.Sprintf("steps=%d configs=%v seed=%d maxlevel=%d shockN=%d amrN=%d\n\n",
		o.Steps, o.Configs, o.Seed, maxLevel, domainN, domainN)
	amr7, amr8 := fig7And8("AMR64", o)
	shock7, shock8 := fig7And8("ShockPool3D", o)
	return head + strings.Join([]string{
		Fig3Report(o, f),
		fig7Section("AMR64", amr7, f), fig7Section("ShockPool3D", shock7, f),
		fig8Section("AMR64", amr8, f), fig8Section("ShockPool3D", shock8, f),
		GammaReport(o, f),
		AblationReport(o, f),
	}, "\n")
}

// Fig3Report renders Figure 3 (ShockPool3D, parallel DLB on both
// systems): communication counts the DLB overhead.
func Fig3Report(o Options, f Format) string {
	o.setDefaults()
	t := metrics.NewTable(
		"Figure 3 — parallel vs distributed execution (ShockPool3D, parallel DLB on both systems; seconds)",
		"config", "par-compute", "par-comm", "par-total", "dist-compute", "dist-comm", "dist-total")
	res := runJobs(fig3Jobs(o))
	for i, n := range o.Configs {
		par, dist := res[2*i], res[2*i+1]
		t.AddRow(ConfigName(n), par.Compute(), par.Comm()+par.Overhead(), par.Total,
			dist.Compute(), dist.Comm()+dist.Overhead(), dist.Total)
	}
	return f.section(t,
		"paper: computation similar on both systems; distributed communication much larger (shared WAN).\n")
}

// Fig7Report renders Figure 7 for one dataset.
func Fig7Report(dataset string, o Options, f Format) string {
	return fig7Section(dataset, Fig7(dataset, o), f)
}

func fig7Section(dataset string, rows []Fig7Row, f Format) string {
	band := Fig7Bands[dataset]
	sysName := "WAN (ANL+NCSA, MREN OC-3)"
	if dataset == "AMR64" {
		sysName = "LAN (ANL+ANL, shared GigE)"
	}
	t := metrics.NewTable(
		fmt.Sprintf("Figure 7 — execution time, %s on %s (seconds)", dataset, sysName),
		"config", "parallel-dlb", "distributed-dlb", "improvement%")
	for _, r := range rows {
		t.AddRow(r.Config, r.Parallel, r.Distributed, r.ImprovementPct)
	}
	return f.section(t, fmt.Sprintf(
		"measured: avg improvement %.1f%% | paper: %.1f%%–%.1f%%, avg %.1f%%\n",
		AvgImprovement(rows), band.MinPct, band.MaxPct, band.AvgPct))
}

// Fig8Report renders Figure 8 for one dataset.
func Fig8Report(dataset string, o Options, f Format) string {
	return fig8Section(dataset, Fig8(dataset, o), f)
}

func fig8Section(dataset string, rows []Fig8Row, f Format) string {
	band := Fig8Bands[dataset]
	t := metrics.NewTable(
		fmt.Sprintf("Figure 8 — efficiency E(1)/(E·P), %s", dataset),
		"config", "parallel-dlb", "distributed-dlb", "improvement%")
	var avg float64
	for _, r := range rows {
		t.AddRow(r.Config, r.ParallelEfficiency, r.DistEfficiency, r.ImprovementPct)
		avg += r.ImprovementPct
	}
	avg /= float64(len(rows))
	return f.section(t, fmt.Sprintf(
		"measured: avg efficiency improvement %.1f%% | paper: %.1f%%–%.1f%%\n",
		avg, band.MinPct, band.MaxPct))
}

// GammaReport renders the γ-sensitivity ablation (the parameter study
// Section 6 lists as future work).
func GammaReport(o Options, f Format) string {
	o.setDefaults()
	t := metrics.NewTable(
		"Ablation — γ sensitivity (ShockPool3D, 4+4 WAN; paper defers this to future work)",
		"gamma", "total-time", "global-redists", "global-evals")
	gammas := []float64{0.5, 1, 2, 4, 8}
	for i, r := range sweep(gammas, o, setGamma) {
		t.AddRow(fmt.Sprintf("%.1f", gammas[i]), r.Total, r.GlobalRedists, r.GlobalEvals)
	}
	return f.section(t,
		"expectation: higher γ vetoes more redistributions; γ≈2 (the paper's default) balances overhead vs imbalance.\n")
}
