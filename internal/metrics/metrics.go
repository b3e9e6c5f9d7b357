// Package metrics defines the measured outcome of a SAMR run — total
// virtual execution time with its compute/communication breakdown —
// and the derived quantities the paper reports: relative improvement
// (Figure 7) and efficiency (Figure 8).
package metrics

import (
	"fmt"
	"strings"

	"samrdlb/internal/vclock"
)

// Counters is the run-state record: every deterministic cumulative
// counter a run reports. It is defined once and shared by the three
// places that need it — the engine keeps its live value, ckpt.Meta
// embeds it so every counter survives a resume, and Result embeds it
// so every counter is reported — which is why adding a counter is a
// single edit here plus its increment.
type Counters struct {
	// GlobalEvals counts gain/cost evaluations; GlobalRedists counts
	// actual global redistributions; LocalMigrations counts grids
	// moved by the local phase.
	GlobalEvals, GlobalRedists, LocalMigrations int
	// MaxCells is the peak total cell count over all levels.
	MaxCells int64
	// LedgerEvents counts hierarchy mutation events absorbed by the
	// incremental load ledger; LedgerRebuilds counts full O(grids)
	// rebuilds (initial build plus one per checkpoint recovery).
	LedgerEvents   uint64
	LedgerRebuilds int
	// LastGain, LastCost and LastGamma are the inputs of the most
	// recent Gain > γ·Cost gate exactly as the balancer compared them
	// (all zero when no gate ever ran). They are snapshotted from the
	// decision, not recomputed — a resumed run reports what the
	// original run compared.
	LastGain, LastCost, LastGamma float64

	// Fault-tolerance outcome (all zero unless fault injection was
	// enabled for the run).
	//
	// ProbeRetries counts failed probe attempts that were retried;
	// ProbeFallbacks counts evaluations whose cost model ran on the
	// NWS forecast because every probe attempt failed. RetryTime is
	// the wall time lost to probe timeouts and backoff (also charged
	// into δ). QuarantinedSteps counts level-0 boundaries at which at
	// least one group was unreachable; CatchupEvals counts forced
	// gain/cost evaluations right after a quarantine lifted.
	// Recoveries counts checkpoint restores after processor failures;
	// RecoveryTime is the wall time they consumed (restore plus
	// replayed work); FailedProcs the processors lost for good.
	ProbeRetries     int
	ProbeFallbacks   int
	RetryTime        float64
	QuarantinedSteps int
	CatchupEvals     int
	Recoveries       int
	RecoveryTime     float64
	FailedProcs      int

	// Elastic-membership outcome (all zero unless fault injection was
	// enabled). SuspectTransitions counts alive→suspected transitions
	// driven by probe retry exhaustion; SuspectedDead counts
	// suspected→presumed-dead escalations; Rejoins counts completed
	// re-admissions of returning processors; RejoinCatchups counts the
	// forced gain/cost evaluations armed by those rejoins;
	// QuorumDegradedSteps counts level-0 boundaries at which some
	// group was below its admission quorum.
	SuspectTransitions  int
	SuspectedDead       int
	Rejoins             int
	RejoinCatchups      int
	QuorumDegradedSteps int

	// Durable checkpoint outcome (all zero unless a checkpoint
	// directory was configured).
	//
	// DiskCheckpoints counts on-disk generations written;
	// DiskCheckpointErrors counts writes that failed (injected disk
	// faults or real I/O errors). CheckpointFallbacks counts restores
	// that could not use their first candidate (a corrupt in-memory
	// blob or on-disk generation) and fell back; CorruptGenerations
	// counts on-disk generations skipped as corrupt during those
	// restores. PristineRestarts counts recoveries that exhausted
	// every checkpoint and rebuilt from initial conditions.
	// DiskPruneErrors counts pruned-generation files whose deletion
	// failed (the file is stranded on disk; the store no longer tracks
	// it).
	DiskCheckpoints      int
	DiskCheckpointErrors int
	CheckpointFallbacks  int
	CorruptGenerations   int
	PristineRestarts     int
	DiskPruneErrors      int
}

// Result is the outcome of one run.
type Result struct {
	// Scheme, Dataset and SystemName identify the run.
	Scheme, Dataset, SystemName string
	// Procs is the total processor count; PerfSum the summed relative
	// performance (equal to Procs for homogeneous systems).
	Procs   int
	PerfSum float64
	// Steps is the number of level-0 steps executed.
	Steps int
	// Total is the virtual execution time (seconds).
	Total float64
	// Breakdown is the per-phase critical-path time.
	Breakdown [vclock.NumPhases]float64
	// Utilisation is mean busy / elapsed.
	Utilisation float64
	// FaultEvents is the number of scripted fault events (zero unless
	// fault injection was enabled).
	FaultEvents int

	// Counters are the run's cumulative counters; their fields are
	// promoted (res.GlobalEvals, res.Recoveries, …).
	Counters

	// Wire-transport outcome (all zero unless the run executed over a
	// socket transport). TransportFaults counts rank sends that failed
	// on the wire (injected or real); TransportFallbacks counts
	// exchange phases that consequently re-ran over the in-memory data
	// path — at most one, since the first detaches the run from the
	// wire. TransportFrames and TransportBytes count frames and bytes
	// actually written to the wire. TransportTimeouts counts wire
	// reads/writes that exceeded the configured deadline (wall-clock
	// dependent, so advisory only). They are per-process and
	// wall-clock-paced, hence neither checkpointed, nor part of Counters,
	// nor part of Identity.
	TransportFaults    int
	TransportFallbacks int
	TransportFrames    int64
	TransportBytes     int64
	TransportTimeouts  int64
}

// Identity renders every field of the Result, floats in shortest
// round-trip form, with the transport counters zeroed. Two runs are the
// same run exactly when their identities are equal.
func (r *Result) Identity() string {
	c := *r
	c.TransportFaults, c.TransportFallbacks = 0, 0
	c.TransportFrames, c.TransportBytes, c.TransportTimeouts = 0, 0, 0
	return fmt.Sprintf("%+v", c)
}

// Faulty reports whether the run observed any fault-layer activity.
func (r *Result) Faulty() bool {
	return r.FaultEvents > 0 || r.ProbeRetries > 0 || r.QuarantinedSteps > 0 || r.Recoveries > 0
}

// FaultSummary renders the fault-tolerance counters, one per line
// (empty string for a fault-free run).
func (r *Result) FaultSummary() string {
	if !r.Faulty() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault events scripted:    %d\n", r.FaultEvents)
	fmt.Fprintf(&b, "probe retries:            %d (%.3fs charged to delta)\n", r.ProbeRetries, r.RetryTime)
	fmt.Fprintf(&b, "forecast fallbacks:       %d\n", r.ProbeFallbacks)
	fmt.Fprintf(&b, "quarantined level-0 steps:%d (catch-up evals %d)\n", r.QuarantinedSteps, r.CatchupEvals)
	fmt.Fprintf(&b, "processor failures:       %d (recoveries %d, %.3fs lost+replayed)\n",
		r.FailedProcs, r.Recoveries, r.RecoveryTime)
	fmt.Fprintf(&b, "recovery phase time:      %.3fs\n", r.Breakdown[vclock.Recovery])
	if r.SuspectTransitions > 0 || r.Rejoins > 0 || r.QuorumDegradedSteps > 0 {
		fmt.Fprintf(&b, "membership:               %d suspected, %d presumed dead, %d rejoins (catch-ups %d), %d below-quorum steps\n",
			r.SuspectTransitions, r.SuspectedDead, r.Rejoins, r.RejoinCatchups, r.QuorumDegradedSteps)
	}
	if r.CheckpointFallbacks > 0 || r.PristineRestarts > 0 {
		fmt.Fprintf(&b, "checkpoint fallbacks:     %d (corrupt generations skipped %d, pristine restarts %d)\n",
			r.CheckpointFallbacks, r.CorruptGenerations, r.PristineRestarts)
	}
	return b.String()
}

// RecoveryReport renders the retry/backoff/suspicion and rejoin
// counters, one per line — the elastic-membership view of the run
// (empty string when nothing membership-related ever happened).
func (r *Result) RecoveryReport() string {
	if r.ProbeRetries == 0 && r.SuspectTransitions == 0 && r.Rejoins == 0 &&
		r.SuspectedDead == 0 && r.QuorumDegradedSteps == 0 && r.Recoveries == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "probe retries:             %d (%.3fs charged to delta)\n", r.ProbeRetries, r.RetryTime)
	fmt.Fprintf(&b, "suspect transitions:       %d\n", r.SuspectTransitions)
	fmt.Fprintf(&b, "suspected -> presumed dead:%d\n", r.SuspectedDead)
	fmt.Fprintf(&b, "rejoins completed:         %d (catch-up evals %d)\n", r.Rejoins, r.RejoinCatchups)
	fmt.Fprintf(&b, "below-quorum steps:        %d\n", r.QuorumDegradedSteps)
	fmt.Fprintf(&b, "checkpoint recoveries:     %d (%.3fs lost+replayed)\n", r.Recoveries, r.RecoveryTime)
	return b.String()
}

// CheckpointSummary renders the durable-checkpoint counters (empty
// string when no store was configured and nothing fell back). Prune
// failures are appended only when they happened, so fault-free runs
// keep their historical output byte for byte.
func (r *Result) CheckpointSummary() string {
	if r.DiskCheckpoints == 0 && r.DiskCheckpointErrors == 0 {
		return ""
	}
	s := fmt.Sprintf("durable checkpoints: %d written, %d failed", r.DiskCheckpoints, r.DiskCheckpointErrors)
	if r.DiskPruneErrors > 0 {
		s += fmt.Sprintf(", %d prune failures", r.DiskPruneErrors)
	}
	return s
}

// TransportSummary renders the wire-transport counters (empty string
// for runs that never touched a socket transport).
func (r *Result) TransportSummary() string {
	if r.TransportFrames == 0 && r.TransportFaults == 0 {
		return ""
	}
	s := fmt.Sprintf("wire transport: %d frames, %d bytes, %d faults (%d phase fallbacks)",
		r.TransportFrames, r.TransportBytes, r.TransportFaults, r.TransportFallbacks)
	if r.TransportTimeouts > 0 {
		s += fmt.Sprintf(", %d deadline expiries", r.TransportTimeouts)
	}
	return s
}

// Compute returns the compute share of the breakdown.
func (r *Result) Compute() float64 { return r.Breakdown[vclock.Compute] }

// LocalComm returns intra-group communication time.
func (r *Result) LocalComm() float64 { return r.Breakdown[vclock.LocalComm] }

// RemoteComm returns inter-group communication time.
func (r *Result) RemoteComm() float64 { return r.Breakdown[vclock.RemoteComm] }

// Comm returns all communication time.
func (r *Result) Comm() float64 { return r.LocalComm() + r.RemoteComm() }

// Overhead returns DLB decision, redistribution and regrid time.
func (r *Result) Overhead() float64 {
	return r.Breakdown[vclock.DLBOverhead] + r.Breakdown[vclock.Redistribution] + r.Breakdown[vclock.Regrid]
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s on %s (%dp): total %.3fs = compute %.3f + comm %.3f (local %.3f, remote %.3f) + overhead %.3f [util %.2f, redists %d]",
		r.Dataset, r.Scheme, r.SystemName, r.Procs, r.Total,
		r.Compute(), r.Comm(), r.LocalComm(), r.RemoteComm(), r.Overhead(),
		r.Utilisation, r.GlobalRedists)
}

// Improvement returns the paper's relative improvement in percent:
// how much smaller `improved` is than `base`.
func Improvement(base, improved float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - improved) / base
}

// Efficiency is the paper's Figure-8 metric: E(1) / (E · P), where
// E(1) is the sequential execution time, E the distributed execution
// time, and P the summed relative processor performance.
func Efficiency(e1, e, perfSum float64) float64 {
	if e <= 0 || perfSum <= 0 {
		return 0
	}
	return e1 / (e * perfSum)
}

// Table renders rows of (label, values...) with a header, aligned for
// terminal output — the textual equivalent of the paper's bar charts.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row (stringifying each cell with %v, floats with
// 3 decimals).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Markdown renders the same cells as a GitHub-flavoured table under a
// "### Title" heading.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n|%s\n", strings.Join(t.Columns, " | "), strings.Repeat("---|", len(t.Columns)))
	for _, r := range t.rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	return b.String()
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
