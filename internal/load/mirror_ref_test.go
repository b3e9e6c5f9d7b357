package load_test

import (
	"math/rand"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/load"
	"samrdlb/internal/machine"
	"samrdlb/internal/scenario"
)

// refMirrors is the three per-group aggregates as the Recorder and the
// Ledger kept them while they were maintained on write: gw updated by
// the difference on every RecordLevelWork, groupSubtree and
// groupL0Cells on every hierarchy event, with the rule that a subtree
// counts for its root's group and a chain that ends at a grid detached
// mid-split is attributed to nobody until the re-attach event. The
// update rules are the deleted code's; the group reads that replaced
// them (LevelGroupWork, GroupSubtreeWork, GroupLevel0Cells) are sums
// over per-processor tables, and the tests below demand == between the
// two — every summand is an integer-valued float64 far below 2^53, so
// neither the order of a sum nor a chain of differences can round.
type refMirrors struct {
	sys    *machine.System
	h      *amr.Hierarchy
	ledger amr.Listener // the events pass through to the real ledger

	w  [][]float64 // [proc][level], the value gw last saw
	gw [][]float64 // [group][level]

	sub          map[amr.GridID]float64
	groupSubtree []float64
	groupL0Cells []int64
}

func newRefMirrors(sys *machine.System, maxLevel int) *refMirrors {
	m := &refMirrors{sys: sys,
		w:  make([][]float64, sys.NumProcs()),
		gw: make([][]float64, sys.NumGroups()),
	}
	for p := range m.w {
		m.w[p] = make([]float64, maxLevel+1)
	}
	for g := range m.gw {
		m.gw[g] = make([]float64, maxLevel+1)
	}
	return m
}

func (m *refMirrors) recordLevelWork(proc, level int, work float64) {
	m.gw[m.sys.GroupOf(proc)][level] += work - m.w[proc][level]
	m.w[proc][level] = work
}

func (m *refMirrors) resetInterval() {
	for p := range m.w {
		clear(m.w[p])
	}
	for g := range m.gw {
		clear(m.gw[g])
	}
}

// attach rebuilds the ledger mirrors from the hierarchy in one walk, as
// Ledger.Rebuild did, and puts m between the hierarchy and the ledger
// so that every later event reaches both.
func (m *refMirrors) attach(h *amr.Hierarchy, ledger *load.Ledger) {
	m.h, m.ledger = h, ledger
	m.sub = make(map[amr.GridID]float64)
	m.groupSubtree = make([]float64, m.sys.NumGroups())
	m.groupL0Cells = make([]int64, m.sys.NumGroups())
	for lev := 0; lev <= h.MaxLevel; lev++ {
		for _, g := range h.Grids(lev) {
			m.sub[g.ID] = float64(g.NumCells()) * m.iterWeight(lev)
		}
	}
	for lev := h.MaxLevel; lev >= 1; lev-- {
		for _, g := range h.Grids(lev) {
			if g.Parent != amr.NoGrid {
				m.sub[g.Parent] += m.sub[g.ID]
			}
		}
	}
	for _, g := range h.Grids(0) {
		m.groupSubtree[m.sys.GroupOf(g.Owner)] += m.sub[g.ID]
		m.groupL0Cells[m.sys.GroupOf(g.Owner)] += g.NumCells()
	}
	h.SetListener(m)
}

func (m *refMirrors) iterWeight(level int) float64 {
	w := 1.0
	for i := 0; i < level; i++ {
		w *= float64(m.h.RefFactor)
	}
	return w
}

func (m *refMirrors) GridAdded(h *amr.Hierarchy, g *amr.Grid) {
	grp := m.sys.GroupOf(g.Owner)
	own := float64(g.NumCells()) * m.iterWeight(g.Level)
	m.sub[g.ID] = own
	if g.Level == 0 {
		m.groupSubtree[grp] += own
		m.groupL0Cells[grp] += g.NumCells()
	} else {
		m.addToChain(g.Parent, own)
	}
	m.ledger.GridAdded(h, g)
}

func (m *refMirrors) GridRemoved(h *amr.Hierarchy, g *amr.Grid) {
	grp := m.sys.GroupOf(g.Owner)
	w := m.sub[g.ID]
	if g.Level == 0 {
		m.groupSubtree[grp] -= w
		m.groupL0Cells[grp] -= g.NumCells()
	} else {
		m.addToChain(g.Parent, -w)
	}
	delete(m.sub, g.ID)
	m.ledger.GridRemoved(h, g)
}

func (m *refMirrors) OwnerChanged(h *amr.Hierarchy, g *amr.Grid, oldOwner int) {
	oldGrp, newGrp := m.sys.GroupOf(oldOwner), m.sys.GroupOf(g.Owner)
	if g.Level == 0 && oldGrp != newGrp {
		m.groupSubtree[oldGrp] -= m.sub[g.ID]
		m.groupSubtree[newGrp] += m.sub[g.ID]
	}
	if g.Level == 0 {
		m.groupL0Cells[oldGrp] -= g.NumCells()
		m.groupL0Cells[newGrp] += g.NumCells()
	}
	m.ledger.OwnerChanged(h, g, oldOwner)
}

func (m *refMirrors) ParentChanged(h *amr.Hierarchy, g *amr.Grid, oldParent amr.GridID) {
	w := m.sub[g.ID]
	if oldParent != amr.NoGrid {
		m.addToChain(oldParent, -w)
	}
	if g.Parent != amr.NoGrid {
		m.addToChain(g.Parent, w)
	}
	m.ledger.ParentChanged(h, g, oldParent)
}

func (m *refMirrors) addToChain(id amr.GridID, w float64) {
	for id != amr.NoGrid {
		p := m.h.Grid(id)
		if p == nil {
			return
		}
		m.sub[p.ID] += w
		if p.Level == 0 {
			m.groupSubtree[m.sys.GroupOf(p.Owner)] += w
			return
		}
		id = p.Parent
	}
}

// compare demands bit equality between every group read and its mirror.
func (m *refMirrors) compare(t *testing.T, where string, rec *load.Recorder, led *load.Ledger) {
	t.Helper()
	for g := 0; g < m.sys.NumGroups(); g++ {
		for l := range m.gw[g] {
			if got, want := rec.LevelGroupWork(g, l), m.gw[g][l]; got != want {
				t.Fatalf("%s: LevelGroupWork(%d, %d) = %v, mirror %v", where, g, l, got, want)
			}
		}
		if led == nil {
			continue
		}
		if got, want := led.GroupSubtreeWork(g), m.groupSubtree[g]; got != want {
			t.Fatalf("%s: GroupSubtreeWork(%d) = %v, mirror %v", where, g, got, want)
		}
		if got, want := led.GroupLevel0Cells(g), m.groupL0Cells[g]; got != want {
			t.Fatalf("%s: GroupLevel0Cells(%d) = %d, mirror %d", where, g, got, want)
		}
	}
}

// TestLevelGroupWorkMatchesMirrorCallForCall makes every
// RecordLevelWork and ResetInterval call on a Recorder and on the
// mirror alike: work shaped like the engine's (cells × flops per cell,
// plus 40 per particle on level 0), each (processor, level) overwritten
// several times an interval, as a level that subcycles is.
func TestLevelGroupWorkMatchesMirrorCallForCall(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := machine.WanPair(1+rng.Intn(4), nil)
		const maxLevel = 2
		rec := load.NewRecorder(sys, maxLevel)
		m := newRefMirrors(sys, maxLevel)
		flops := []float64{18, 30, 10 * float64(1+rng.Intn(8))}[rng.Intn(3)]
		for call := 0; call < 400; call++ {
			if rng.Intn(40) == 0 {
				rec.ResetInterval()
				m.resetInterval()
			}
			p, l := rng.Intn(sys.NumProcs()), rng.Intn(maxLevel+1)
			work := float64(rng.Intn(1<<21)) * flops
			if l == 0 {
				work += float64(rng.Intn(1<<16)) * 40
			}
			rec.RecordLevelWork(p, l, work)
			m.recordLevelWork(p, l, work)
			m.compare(t, "after a call", rec, nil)
		}
	}
}

// TestGroupReadsMatchMirrorsInTheEngine runs the first 200 generated
// scenarios under every policy with the mirrors attached and compares
// at every invariant hook, the global-balance one among them (it fires
// before the interval resets, on the state the decision read). The
// ledger mirrors are fed by the hierarchy's own events, through the
// same amr.Listener seam the ledger sits on. The engine calls
// RecordLevelWork on a concrete *Recorder, which offers no such seam,
// so gw is fed the recorder's per-processor table as it stands at each
// hook: one overwrite per (processor, level) with the value the engine
// last wrote, the intermediate overwrites of a subcycling level skipped.
func TestGroupReadsMatchMirrorsInTheEngine(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	hooks, globals := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		for _, policy := range dlb.PolicyNames() {
			s := scenario.Generate(seed)
			s.Scheme = policy
			s.Normalize()
			var m *refMirrors
			var of *engine.Runner
			hook := func(pi *engine.PhaseInfo) {
				r := pi.Runner
				if r != of { // the first hook of a leg: a fresh recorder
					m, of = newRefMirrors(r.System(), r.Hierarchy().MaxLevel), r
				}
				if m.h != r.Hierarchy() { // first hook, or a recovery swapped one in
					m.attach(r.Hierarchy(), r.Ledger())
				}
				if pi.Phase == engine.PhaseRestore {
					m.resetInterval() // the engine drops the aborted interval before the hook
				}
				rec := r.Context().Load
				for p := range m.w {
					for l := range m.w[p] {
						m.recordLevelWork(p, l, rec.LevelWork(p, l))
					}
				}
				m.compare(t, s.Encode()+" at "+pi.Phase.String(), rec, r.Ledger())
				hooks++
				if pi.Phase == engine.PhaseGlobalBalance {
					globals++
					m.resetInterval()
				}
			}
			r, _, err := s.Start(false, func(o *engine.Options) { o.Invariants = hook })
			if err != nil {
				t.Fatalf("%s: %v", s.Encode(), err)
			}
			r.Run()
		}
	}
	t.Logf("compared at %d hooks, %d of them global-balance decisions", hooks, globals)
	if globals == 0 {
		t.Error("no global-balance hook fired")
	}
}
