package ckpt

import (
	"fmt"
	"strings"
)

// Skip records one generation Restore had to pass over, and why.
type Skip struct {
	Gen    int
	File   string
	Reason string
}

// RestoreReport describes the outcome of a restore: the generation
// that won, the step it covers, and every newer generation that was
// skipped as corrupt or unreadable.
type RestoreReport struct {
	Gen     int
	Step    int
	SimTime float64
	Skipped []Skip
}

// String renders the report for logs.
func (r *RestoreReport) String() string {
	var b strings.Builder
	for _, sk := range r.Skipped {
		fmt.Fprintf(&b, "skipped generation %d (%s): %s\n", sk.Gen, sk.File, sk.Reason)
	}
	fmt.Fprintf(&b, "restored generation %d (step %d, t=%.4f)", r.Gen, r.Step, r.SimTime)
	return b.String()
}

// Restore walks the retained generations newest-first. For each it
// verifies the magic and both frame checksums, decodes the meta
// header, and hands (meta, hierarchy payload) to accept; the first
// candidate accept approves wins. accept is where the caller runs its
// own semantic validation (amr.Load, system-shape checks) — an error
// there skips the generation exactly like on-disk corruption does.
// Every skipped generation lands in the report with its reason; if no
// generation survives, the error lists them all.
func (s *Store) Restore(accept func(meta *Meta, hierarchy []byte) error) (*Meta, []byte, *RestoreReport, error) {
	report := &RestoreReport{Gen: -1, Step: -1}
	if len(s.gens) == 0 {
		return nil, nil, report, fmt.Errorf("ckpt.Restore: %s holds no generations", s.dir)
	}
	for i := len(s.gens) - 1; i >= 0; i-- {
		entry := s.gens[i]
		meta, payload, err := s.tryGeneration(entry, accept)
		if err != nil {
			report.Skipped = append(report.Skipped, Skip{Gen: entry.Gen, File: entry.File, Reason: err.Error()})
			continue
		}
		report.Gen = entry.Gen
		report.Step = meta.Step
		report.SimTime = meta.SimTime
		return meta, payload, report, nil
	}
	var reasons []string
	for _, sk := range report.Skipped {
		reasons = append(reasons, fmt.Sprintf("gen %d: %s", sk.Gen, sk.Reason))
	}
	return nil, nil, report, fmt.Errorf("ckpt.Restore: no usable generation in %s (%s)",
		s.dir, strings.Join(reasons, "; "))
}

// tryGeneration validates one generation end to end.
func (s *Store) tryGeneration(entry GenEntry, accept func(*Meta, []byte) error) (*Meta, []byte, error) {
	data, err := s.dir.ReadFile(entry.File)
	if err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("zero-length file")
	}
	meta, payload, err := decode(data)
	if err != nil {
		return nil, nil, err
	}
	if accept != nil {
		if err := accept(meta, payload); err != nil {
			return nil, nil, err
		}
	}
	return meta, payload, nil
}
