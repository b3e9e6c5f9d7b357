// Package vclock accounts virtual time for the bulk-synchronous
// distributed execution model. Each simulated processor accumulates
// busy time; phases advance the global clock by the slowest
// processor's contribution (the critical path), and the per-phase
// totals form the compute/communication breakdown reported by the
// paper's Figure 3.
package vclock

import "fmt"

// Phase tags where virtual time is spent.
type Phase int

// The accounting phases. LocalComm is communication within a group;
// RemoteComm crosses groups (the overhead the paper's scheme attacks).
const (
	Compute Phase = iota
	LocalComm
	RemoteComm
	DLBOverhead
	Redistribution
	Regrid
	// Recovery is checkpointing plus failure recovery: the wall time
	// spent writing periodic checkpoints, restoring after an injected
	// processor failure, and re-doing the work lost since the last
	// checkpoint.
	Recovery
	numPhases
)

// NumPhases is the count of accounting phases.
const NumPhases = int(numPhases)

var phaseNames = [...]string{
	"compute", "local-comm", "remote-comm", "dlb-overhead", "redistribution", "regrid", "recovery",
}

func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Clock tracks the virtual execution time of a bulk-synchronous run
// over nproc processors.
type Clock struct {
	nproc   int
	now     float64
	byPhase [NumPhases]float64
	busy    []float64 // per-processor busy time, for utilisation
}

// New returns a clock for nproc processors, at time zero.
func New(nproc int) *Clock {
	if nproc <= 0 {
		panic("vclock.New: need at least one processor")
	}
	return &Clock{nproc: nproc, busy: make([]float64, nproc)}
}

// NumProcs returns the processor count the clock was built for.
func (c *Clock) NumProcs() int { return c.nproc }

// Now returns the current virtual time (seconds).
func (c *Clock) Now() float64 { return c.now }

// AddPhase records a bulk-synchronous phase: perProc[i] is the time
// processor i spends in the phase. The global clock advances by the
// maximum (all processors wait at the implicit barrier) and that
// maximum is attributed to the phase. Per-processor busy time
// accumulates the individual contributions, so Utilisation reflects
// imbalance.
func (c *Clock) AddPhase(p Phase, perProc []float64) float64 {
	if len(perProc) != c.nproc {
		panic(fmt.Sprintf("vclock.AddPhase: got %d entries for %d procs", len(perProc), c.nproc))
	}
	var worst float64
	for i, dt := range perProc {
		if dt < 0 {
			panic("vclock.AddPhase: negative time")
		}
		c.busy[i] += dt
		if dt > worst {
			worst = dt
		}
	}
	c.now += worst
	c.byPhase[p] += worst
	return worst
}

// AddUniform records a phase where every processor spends the same
// time dt (e.g. a global synchronisation or an all-to-all exchange
// bounded by one link).
func (c *Clock) AddUniform(p Phase, dt float64) {
	if dt < 0 {
		panic("vclock.AddUniform: negative time")
	}
	for i := range c.busy {
		c.busy[i] += dt
	}
	c.now += dt
	c.byPhase[p] += dt
}

// PhaseTotal returns the accumulated critical-path time of a phase.
func (c *Clock) PhaseTotal(p Phase) float64 { return c.byPhase[p] }

// Busy returns processor i's accumulated busy time.
func (c *Clock) Busy(i int) float64 { return c.busy[i] }

// Utilisation returns mean busy time divided by elapsed time — 1.0
// means perfectly balanced, lower means processors idled at barriers.
func (c *Clock) Utilisation() float64 {
	if c.now == 0 {
		return 1
	}
	var sum float64
	for _, b := range c.busy {
		sum += b
	}
	return sum / (float64(c.nproc) * c.now)
}

// Breakdown returns a copy of the per-phase totals.
func (c *Clock) Breakdown() [NumPhases]float64 { return c.byPhase }

// State is a serializable snapshot of a clock, used by the durable
// checkpoint store so a resumed run continues with exactly the
// virtual time, phase breakdown and per-processor busy totals the
// interrupted run had accumulated.
type State struct {
	Now     float64
	ByPhase [NumPhases]float64
	Busy    []float64
}

// State snapshots the clock.
func (c *Clock) State() State {
	return State{Now: c.now, ByPhase: c.byPhase, Busy: append([]float64(nil), c.busy...)}
}

// SetState restores a snapshot taken by State. The snapshot must
// cover the same processor count the clock was built for.
func (c *Clock) SetState(s State) error {
	if len(s.Busy) != c.nproc {
		return fmt.Errorf("vclock.SetState: snapshot covers %d processors, clock has %d", len(s.Busy), c.nproc)
	}
	c.now = s.Now
	c.byPhase = s.ByPhase
	copy(c.busy, s.Busy)
	return nil
}
