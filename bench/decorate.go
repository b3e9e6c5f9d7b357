package main

import (
	"sync/atomic"

	"samrdlb/internal/amr"
	"samrdlb/internal/cluster"
	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// Span names. The three phase spans and dlb.global partition a run's
// level-0 steps; the others are their children.
const (
	spanRegrid  = "engine.regrid"  // step begin → PhaseRegrid hook
	spanAdvance = "engine.advance" // → start of GlobalBalance
	spanGlobal  = "dlb.global"     // Balancer.GlobalBalance
	spanTail    = "engine.tail"    // → AfterStep
	spanFlag    = "workload.flag"
	spanInit    = "workload.init"
	spanKernel  = "solver.step"
	spanPlace   = "dlb.place"
	spanLocal   = "dlb.local"
	spanLedger  = "load.ledger_event"
	spanExec    = "scenario.exec"
)

// runTracer attaches spans to one engine run through the engine's
// public seams only: a Driver, Kernel, Balancer and Listener decorator
// plus the Invariants and AfterStep hooks as phase-boundary
// timestamps. It never touches the run's state, so a traced run must
// produce the Result an untraced one does (output check g).
type runTracer struct {
	rec *recorder
	run int32

	// Phase-boundary timestamps of the level-0 step in progress; the
	// engine loop is single-threaded, so plain fields suffice.
	stepStart              int64
	regridEnd              int64 // 0 until this step's PhaseRegrid
	globalStart, globalEnd int64 // 0 until this step's GlobalBalance
	phases                 []span

	kernelCells atomic.Int64 // cells stepped by kernels (pool workers add)

	localCalls, localHits, localMigs int
}

// newRunTracer opens the next run on the recorder.
func newRunTracer(rec *recorder) *runTracer {
	rec.run++
	return &runTracer{rec: rec, run: rec.run}
}

// begin marks the start of step 0; call it right before Runner.Run.
func (t *runTracer) begin() { t.stepStart = t.rec.now() }

// invariants is the Options.Invariants hook, chained after prev.
func (t *runTracer) invariants(prev func(*engine.PhaseInfo)) func(*engine.PhaseInfo) {
	return func(pi *engine.PhaseInfo) {
		if prev != nil {
			prev(pi)
		}
		if pi.Phase == engine.PhaseRegrid {
			t.regridEnd = t.rec.now()
		}
	}
}

// afterStep is the Options.AfterStep hook: it closes the step's phase
// spans. A step the engine abandons to recover from a processor
// failure never reaches it; its time folds into the next step's spans.
func (t *runTracer) afterStep(int, *engine.Runner) {
	end := t.rec.now()
	at := t.stepStart
	phase := func(name string, to int64) {
		if to > at {
			t.phases = append(t.phases, span{Name: name, Start: at, End: to, Parent: -1, Run: t.run})
			at = to
		}
	}
	if t.regridEnd > 0 {
		phase(spanRegrid, t.regridEnd)
	}
	if t.globalStart > 0 {
		phase(spanAdvance, t.globalStart)
		phase(spanGlobal, t.globalEnd)
		phase(spanTail, end)
	} else {
		phase(spanAdvance, end)
	}
	t.stepStart, t.regridEnd, t.globalStart, t.globalEnd = end, 0, 0, 0
}

// finish hands the run's phase spans to the recorder as the parents of
// everything recorded inside them.
func (t *runTracer) finish() { t.rec.adopt(t.run, t.phases) }

// attach decorates a built runner's ledger listener. The engine
// installs the ledger in New, so level-0 decomposition events are not
// traced; everything from the first regrid on is.
func (t *runTracer) attach(r *engine.Runner) {
	r.Hierarchy().SetListener(tracedListener{inner: r.Ledger(), t: t})
}

// tracedDriver times Flag and InitialCondition and hands the engine
// decorated kernels.
type tracedDriver struct {
	workload.Driver
	t *runTracer
}

func (d tracedDriver) Flag(level int, tm float64, f *cluster.FlagField) {
	start := d.t.rec.now()
	d.Driver.Flag(level, tm, f)
	d.t.rec.add(spanFlag, start, d.t.rec.now())
}

func (d tracedDriver) InitialCondition(p *grid.Patch, dx float64) {
	start := d.t.rec.now()
	d.Driver.InitialCondition(p, dx)
	d.t.rec.add(spanInit, start, d.t.rec.now())
}

func (d tracedDriver) Kernels() []solver.Kernel {
	ks := d.Driver.Kernels()
	out := make([]solver.Kernel, len(ks))
	for i, k := range ks {
		out[i] = traceKernel(k, d.t)
	}
	return out
}

// traceKernel wraps k so that the result is a solver.FluxedKernel
// exactly when k is one: the engine picks the refluxing code path by
// that type assertion, and a decorator that hid it would change what
// the run computes.
func traceKernel(k solver.Kernel, t *runTracer) solver.Kernel {
	tk := tracedKernel{Kernel: k, t: t}
	if fk, ok := k.(solver.FluxedKernel); ok {
		return tracedFluxedKernel{tracedKernel: tk, fluxed: fk}
	}
	return tk
}

type tracedKernel struct {
	solver.Kernel
	t *runTracer
}

func (k tracedKernel) Step(p *grid.Patch, dt, dx float64) {
	start := k.t.rec.now()
	k.Kernel.Step(p, dt, dx)
	k.t.rec.add(spanKernel, start, k.t.rec.now())
	k.t.kernelCells.Add(p.Box.NumCells())
}

type tracedFluxedKernel struct {
	tracedKernel
	fluxed solver.FluxedKernel
}

func (k tracedFluxedKernel) StepFluxes(p *grid.Patch, dt, dx float64) *solver.Fluxes {
	start := k.t.rec.now()
	fl := k.fluxed.StepFluxes(p, dt, dx)
	k.t.rec.add(spanKernel, start, k.t.rec.now())
	k.t.kernelCells.Add(p.Box.NumCells())
	return fl
}

// tracedBalancer times the three balancer entry points and counts how
// often each one actually moved work.
type tracedBalancer struct {
	dlb.Balancer
	t *runTracer
}

func (b tracedBalancer) PlaceChild(ctx *dlb.Context, childBox geom.Box, parent *amr.Grid) int {
	start := b.t.rec.now()
	owner := b.Balancer.PlaceChild(ctx, childBox, parent)
	b.t.rec.add(spanPlace, start, b.t.rec.now())
	return owner
}

func (b tracedBalancer) LocalBalance(ctx *dlb.Context, level int) []dlb.Migration {
	start := b.t.rec.now()
	migs := b.Balancer.LocalBalance(ctx, level)
	b.t.rec.add(spanLocal, start, b.t.rec.now())
	b.t.localCalls++
	if len(migs) > 0 {
		b.t.localHits++
		b.t.localMigs += len(migs)
	}
	return migs
}

func (b tracedBalancer) GlobalBalance(ctx *dlb.Context) dlb.GlobalDecision {
	b.t.globalStart = b.t.rec.now()
	d := b.Balancer.GlobalBalance(ctx)
	b.t.globalEnd = b.t.rec.now()
	return d
}

// tracedListener times the load ledger's event handlers.
type tracedListener struct {
	inner amr.Listener
	t     *runTracer
}

func (l tracedListener) GridAdded(h *amr.Hierarchy, g *amr.Grid) {
	start := l.t.rec.now()
	l.inner.GridAdded(h, g)
	l.t.rec.add(spanLedger, start, l.t.rec.now())
}

func (l tracedListener) GridRemoved(h *amr.Hierarchy, g *amr.Grid) {
	start := l.t.rec.now()
	l.inner.GridRemoved(h, g)
	l.t.rec.add(spanLedger, start, l.t.rec.now())
}

func (l tracedListener) OwnerChanged(h *amr.Hierarchy, g *amr.Grid, oldOwner int) {
	start := l.t.rec.now()
	l.inner.OwnerChanged(h, g, oldOwner)
	l.t.rec.add(spanLedger, start, l.t.rec.now())
}

func (l tracedListener) ParentChanged(h *amr.Hierarchy, g *amr.Grid, oldParent amr.GridID) {
	start := l.t.rec.now()
	l.inner.ParentChanged(h, g, oldParent)
	l.t.rec.add(spanLedger, start, l.t.rec.now())
}
