package exp

import (
	"fmt"
	"strings"

	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/trace"
	"samrdlb/internal/workload"
)

// block renders a preformatted figure under its title: a fenced block
// in markdown, the lines themselves in text.
func (f Format) block(title, body string) string {
	if f == Markdown {
		return "### " + title + "\n\n```\n" + body + "```\n"
	}
	return title + "\n" + body
}

// StructureReport renders the paper's structural figures from real runs:
// the grid hierarchy (Figure 1), the integration order and its balancing
// points (Figures 2 and 5), and the global phase's gain/cost decisions
// and redistributions on ShockPool3D, 2+2 WAN, over o.Steps (Figure 6).
func StructureReport(o Options, f Format) string {
	o.setDefaults()
	var parts []string

	r := engine.New(machine.Origin2000("ANL", 4), workload.NewStaticBlob(16, 2), engine.Options{Steps: 1, MaxLevel: 3})
	r.Run()
	h := r.Hierarchy()
	t := metrics.NewTable("Figure 1 — SAMR grid hierarchy (levels 0..3, blob refinement)",
		"level", "grid", "box", "owner", "parent")
	var levels []string
	for l := 0; l <= h.MaxLevel; l++ {
		grids := h.Grids(l)
		levels = append(levels, fmt.Sprintf("level %d: %d grids, %d cells", l, len(grids), h.TotalCells(l)))
		for _, g := range grids {
			t.AddRow(l, g.ID, g.Box, fmt.Sprintf("p%d", g.Owner), g.Parent)
		}
	}
	nesting := "proper nesting: OK"
	if err := h.CheckProperNesting(); err != nil {
		nesting = "NESTING VIOLATION: " + err.Error()
	}
	parts = append(parts, f.section(t, strings.Join(append(levels, nesting), "\n")+"\n"))

	tr := trace.New()
	engine.New(machine.WanPair(2, nil), workload.NewStaticBlob(16, 2), engine.Options{Steps: 1, MaxLevel: 3, Trace: tr}).Run()
	parts = append(parts, f.block("Figure 2 — integrated execution order (refinement factor 2, one level-0 step)", tr.OrderDiagram(3)))
	t = metrics.NewTable("Figure 5 — balancing points (local after finer-level steps, global after level-0)",
		"#", "t", "event", "level", "note")
	for i, e := range tr.Events {
		t.AddRow(i+1, fmt.Sprintf("%.6f", e.VTime), e.Kind, e.Level, e.Note)
	}
	parts = append(parts, f.section(t, ""))

	tr = trace.New()
	res := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(o.ShockN, 2), engine.Options{
		Steps: o.Steps, MaxLevel: o.MaxLevel, Trace: tr,
	}).Run()
	t = metrics.NewTable(fmt.Sprintf("Figure 6 — global gain/cost decisions and redistributions (ShockPool3D on 2+2 WAN, %d steps)", o.Steps),
		"t", "event", "note")
	for _, e := range tr.OfKind(trace.GlobalCheck, trace.Redistribution) {
		t.AddRow(e.VTime, e.Kind, e.Note)
	}
	parts = append(parts, f.section(t, fmt.Sprintf("total: %d evaluations, %d redistributions\n", res.GlobalEvals, res.GlobalRedists)))
	return strings.Join(parts, "\n")
}

// ProbeReport renders the network model under each background-traffic
// model: the true load, the paper's two-message α/β estimate, the
// NWS-style forecast of β and its best predictor, and the time of a 1 MB
// transfer, sampled every 10 s over 120 s of virtual time. The bursty
// and random-walk traffic is seeded by o.Seed.
func ProbeReport(o Options, f Format) string {
	var parts []string
	for _, m := range []struct {
		name    string
		traffic netsim.TrafficModel
	}{
		{"constant", netsim.ConstantTraffic{Level: 0.4}},
		{"sinusoid", netsim.SinusoidTraffic{Mean: 0.4, Amp: 0.3, Period: 60}},
		{"bursty", &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.7, MeanQuiet: 25, MeanBusy: 12, Seed: o.Seed}},
		{"walk", &netsim.RandomWalkTraffic{Start: 0.3, Step: 0.08, Interval: 5, Seed: o.Seed}},
	} {
		link := netsim.MrenWAN(m.traffic)
		t := metrics.NewTable(fmt.Sprintf("Probe — %s traffic on link %s (alpha %.1f ms, nominal bandwidth %.1f Mb/s)",
			m.name, link.Name, link.Alpha*1e3, 8/link.Beta/1e6),
			"t(s)", "load", "alpha-hat(ms)", "beta-hat(us/KB)", "forecast(us/KB)", "best", "1MB xfer(s)")
		lf := netsim.NewLinkForecast()
		for ts := 0.0; ts <= 120; ts += 10 {
			aHat, bHat, _ := link.Probe(ts)
			lf.Record(aHat, bHat)
			_, fb, _ := lf.Forecast()
			t.AddRow(fmt.Sprintf("%.1f", ts), fmt.Sprintf("%.2f", link.LoadAt(ts)), fmt.Sprintf("%.2f", aHat*1e3),
				fmt.Sprintf("%.2f", bHat*1e6*1024), fmt.Sprintf("%.2f", fb*1e6*1024), lf.Beta.Best(), link.TransferTime(ts, 1<<20))
		}
		parts = append(parts, f.section(t, ""))
	}
	return strings.Join(parts, "\n")
}
