package load

import (
	"fmt"
	"sort"

	"samrdlb/internal/amr"
	"samrdlb/internal/machine"
)

// Ledger is the incrementally maintained load table the DLB decision
// path reads. The paper's argument (Eqs. 1–4) needs the balancer's
// bookkeeping overhead δ to stay small relative to the gain, yet a
// naive implementation recomputes every aggregate — per-processor
// level loads, subtree workloads, total cell counts — by walking the
// whole hierarchy on every evaluation, an O(grids) cost per decision.
// The ledger instead subscribes to the hierarchy's mutation events
// (amr.Listener) and keeps the per-processor and per-grid tables
// current in O(depth) per grid event. Everything per group is a sum
// over those tables taken when the global phase asks, once per
// level-0 step at most (GroupLevel0Cells, GroupSubtreeWork).
//
// Maintained state:
//
//   - procCells[level][proc]: cells owned per processor per level
//     (the w^i_proc table in cell units; the engine scales it by the
//     kernel flop weight when feeding the Recorder).
//   - levelCells[level] and the all-level total.
//   - sub[id]: the iteration-weighted subtree workload of every grid
//     (cells × RefFactor^level summed over the grid and its attached
//     descendants — Eq. 3's N^i_iter weighting for fully subcycled
//     levels).
//   - owned[level][proc]: the grids themselves, for the local phase's
//     donor scans.
//
// All cell quantities are integers represented in float64, far below
// 2^53, so incremental adds and subtracts are exact in any order:
// Verify can demand bit equality with a full recomputation, and a
// group sum does not depend on the order its terms are visited in.
type Ledger struct {
	sys *machine.System
	h   *amr.Hierarchy

	procCells  [][]float64 // [level][proc]
	levelCells []int64     // [level]
	total      int64

	sub map[amr.GridID]float64

	owned []map[int][]*amr.Grid // [level][proc]

	events   uint64
	rebuilds int

	// selfCheck makes every event run the full recompute oracle and
	// panic on divergence — the -check=ledger debug mode.
	selfCheck bool
}

// NewLedger builds a ledger for the hierarchy's current contents and
// returns it. The caller must install it with h.SetListener to keep
// it current.
func NewLedger(sys *machine.System, h *amr.Hierarchy) *Ledger {
	l := &Ledger{sys: sys, h: h}
	l.Rebuild()
	l.rebuilds = 0 // the initial build is not a "re"-build
	return l
}

// SetSelfCheck toggles oracle mode: after every mutation event the
// whole ledger is verified against a from-scratch recomputation and
// any divergence panics with the failing aggregate. Meant for tests
// and -check=ledger; it turns O(changes) bookkeeping back
// into O(grids) per event.
func (l *Ledger) SetSelfCheck(on bool) { l.selfCheck = on }

// EventCount returns the number of mutation events applied since the
// last rebuild — the "O(changes)" side of the decision-path cost.
func (l *Ledger) EventCount() uint64 { return l.events }

// Rebuilds returns how many full recomputations ran (initial build
// excluded): one per checkpoint recovery in a faulty run.
func (l *Ledger) Rebuilds() int { return l.rebuilds }

// Rebuild recomputes every aggregate from the hierarchy in one walk.
// The engine needs it only when it attaches to a hierarchy that
// already holds grids — one restored from a checkpoint; a fresh run
// attaches to an empty hierarchy and everything after is events.
func (l *Ledger) Rebuild() {
	nproc := l.sys.NumProcs()
	nlevel := l.h.MaxLevel + 1

	l.procCells = make([][]float64, nlevel)
	l.levelCells = make([]int64, nlevel)
	l.owned = make([]map[int][]*amr.Grid, nlevel)
	l.total = 0
	l.sub = make(map[amr.GridID]float64)
	l.events = 0
	l.rebuilds++

	for lev := 0; lev < nlevel; lev++ {
		l.procCells[lev] = make([]float64, nproc)
		l.owned[lev] = make(map[int][]*amr.Grid)
		for _, g := range l.h.Grids(lev) {
			c := g.NumCells()
			l.procCells[lev][g.Owner] += float64(c)
			l.levelCells[lev] += c
			l.total += c
			l.owned[lev][g.Owner] = append(l.owned[lev][g.Owner], g)
			l.sub[g.ID] = float64(c) * l.iterWeight(lev)
		}
	}
	// Propagate subtree work bottom-up: when level lev is folded into
	// lev-1, every sub at lev is already complete.
	for lev := nlevel - 1; lev >= 1; lev-- {
		for _, g := range l.h.Grids(lev) {
			if g.Parent != amr.NoGrid {
				l.sub[g.Parent] += l.sub[g.ID]
			}
		}
	}
}

// iterWeight returns RefFactor^level: how many times a level's cells
// advance per level-0 step under full subcycling.
func (l *Ledger) iterWeight(level int) float64 {
	w := 1.0
	for i := 0; i < level; i++ {
		w *= float64(l.h.RefFactor)
	}
	return w
}

// --- amr.Listener implementation -----------------------------------

// GridAdded implements amr.Listener.
func (l *Ledger) GridAdded(h *amr.Hierarchy, g *amr.Grid) {
	cells := float64(g.NumCells())
	l.procCells[g.Level][g.Owner] += cells
	l.levelCells[g.Level] += g.NumCells()
	l.total += g.NumCells()
	l.owned[g.Level][g.Owner] = append(l.owned[g.Level][g.Owner], g)

	own := cells * l.iterWeight(g.Level)
	l.sub[g.ID] = own
	l.addToChain(g.Parent, own)
	l.event()
}

// GridRemoved implements amr.Listener. The grid's children are
// already gone (RemoveGrid's invariant; ClearLevelsFrom removes
// deepest level first), so sub[g] holds only the grid's own work; its
// ancestors are still present for the chain walk.
func (l *Ledger) GridRemoved(h *amr.Hierarchy, g *amr.Grid) {
	cells := float64(g.NumCells())
	l.procCells[g.Level][g.Owner] -= cells
	l.levelCells[g.Level] -= g.NumCells()
	l.total -= g.NumCells()
	l.disown(g, g.Owner)

	l.addToChain(g.Parent, -l.sub[g.ID])
	delete(l.sub, g.ID)
	l.event()
}

// OwnerChanged implements amr.Listener.
func (l *Ledger) OwnerChanged(h *amr.Hierarchy, g *amr.Grid, oldOwner int) {
	cells := float64(g.NumCells())
	l.procCells[g.Level][oldOwner] -= cells
	l.procCells[g.Level][g.Owner] += cells
	l.disown(g, oldOwner)
	l.owned[g.Level][g.Owner] = append(l.owned[g.Level][g.Owner], g)
	l.event()
}

// ParentChanged implements amr.Listener: the grid's subtree work
// moves from the old ancestor chain to the new one (either may be
// detached mid-split).
func (l *Ledger) ParentChanged(h *amr.Hierarchy, g *amr.Grid, oldParent amr.GridID) {
	w := l.sub[g.ID]
	if oldParent != amr.NoGrid {
		l.addToChain(oldParent, -w)
	}
	if g.Parent != amr.NoGrid {
		l.addToChain(g.Parent, w)
	}
	l.event()
}

// addToChain adds w to the subtree sum of the grid id and of every
// ancestor above it; the chain ends at a level-0 root, or earlier at
// a grid detached mid-split (whose re-attach event carries its whole
// subtree sum up the new chain).
func (l *Ledger) addToChain(id amr.GridID, w float64) {
	for id != amr.NoGrid {
		p := l.h.Grid(id)
		if p == nil {
			return
		}
		l.sub[p.ID] += w
		id = p.Parent
	}
}

// disown removes g from owner's per-level grid list (order preserving,
// so scans stay deterministic).
func (l *Ledger) disown(g *amr.Grid, owner int) {
	lst := l.owned[g.Level][owner]
	for i, x := range lst {
		if x.ID == g.ID {
			l.owned[g.Level][owner] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

func (l *Ledger) event() {
	l.events++
	if l.selfCheck {
		if err := l.Verify(); err != nil {
			panic(fmt.Sprintf("load.Ledger self-check failed after event %d: %v", l.events, err))
		}
	}
}

// --- decision-path reads -------------------------------------------

// ProcCells returns the cells processor proc owns at the level.
func (l *Ledger) ProcCells(level, proc int) float64 { return l.procCells[level][proc] }

// LevelCells returns the cell count of one level.
func (l *Ledger) LevelCells(level int) int64 { return l.levelCells[level] }

// TotalCells returns the all-level cell count.
func (l *Ledger) TotalCells() int64 { return l.total }

// SubtreeWork returns the iteration-weighted workload of the grid and
// its descendants (0 for unknown IDs).
func (l *Ledger) SubtreeWork(id amr.GridID) float64 { return l.sub[id] }

// GroupSubtreeWork returns the summed subtree workload of the level-0
// grids the group's processors own — the donor workload of the global
// phase. The whole subtree counts for its root's group, wherever the
// children live.
func (l *Ledger) GroupSubtreeWork(group int) float64 {
	var sum float64
	for _, p := range l.sys.ProcsInGroup(group) {
		for _, g := range l.owned[0][p] {
			sum += l.sub[g.ID]
		}
	}
	return sum
}

// GroupLevel0Cells returns the group's level-0 cell count (the W^0
// that sizes the bytes a boundary shift transfers).
func (l *Ledger) GroupLevel0Cells(group int) int64 {
	var sum float64
	for _, p := range l.sys.ProcsInGroup(group) {
		sum += l.procCells[0][p]
	}
	return int64(sum)
}

// Owned returns the grids processor proc holds at the level. The
// slice is the ledger's own state: callers must not mutate it and
// should copy before triggering migrations.
func (l *Ledger) Owned(level, proc int) []*amr.Grid { return l.owned[level][proc] }

// --- recompute oracle ----------------------------------------------

// Verify recomputes every aggregate from the hierarchy and compares
// it against the incrementally maintained state, returning a
// descriptive error on the first divergence. All quantities are
// integer-valued, so the comparison is exact.
func (l *Ledger) Verify() error {
	want := &Ledger{sys: l.sys, h: l.h}
	want.Rebuild()
	for lev := range want.procCells {
		for p := range want.procCells[lev] {
			if l.procCells[lev][p] != want.procCells[lev][p] {
				return fmt.Errorf("procCells[%d][%d]: ledger %v, recompute %v",
					lev, p, l.procCells[lev][p], want.procCells[lev][p])
			}
		}
		if l.levelCells[lev] != want.levelCells[lev] {
			return fmt.Errorf("levelCells[%d]: ledger %d, recompute %d",
				lev, l.levelCells[lev], want.levelCells[lev])
		}
	}
	if l.total != want.total {
		return fmt.Errorf("total cells: ledger %d, recompute %d", l.total, want.total)
	}
	if len(l.sub) != len(want.sub) {
		return fmt.Errorf("subtree table size: ledger %d, recompute %d", len(l.sub), len(want.sub))
	}
	for id, w := range want.sub {
		if lw, ok := l.sub[id]; !ok || lw != w {
			return fmt.Errorf("subtree[%d]: ledger %v, recompute %v", id, l.sub[id], w)
		}
	}
	for lev := range want.owned {
		for p := 0; p < l.sys.NumProcs(); p++ {
			got, exp := idSet(l.owned[lev][p]), idSet(want.owned[lev][p])
			if len(got) != len(exp) {
				return fmt.Errorf("owned[%d][%d]: ledger holds %d grids, recompute %d",
					lev, p, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					return fmt.Errorf("owned[%d][%d]: ledger %v, recompute %v", lev, p, got, exp)
				}
			}
		}
	}
	return nil
}

func idSet(grids []*amr.Grid) []amr.GridID {
	out := make([]amr.GridID, len(grids))
	for i, g := range grids {
		out[i] = g.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
