package load

import (
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
)

// ledgerFixture builds a 3-level hierarchy on a WanPair(2) system (4
// procs, 2 groups) with the ledger installed as listener: two level-0
// x-slabs (one per group), a level-1 child under each, and one level-2
// grandchild in group 0.
func ledgerFixture(t *testing.T) (*machine.System, *amr.Hierarchy, *Ledger) {
	t.Helper()
	sys := machine.WanPair(2, nil)
	h := amr.New(geom.UnitCube(8), 2, 2, 1, false, "q")
	l := NewLedger(sys, h)
	h.SetListener(l)
	a := h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 8, 8}), 0, amr.NoGrid)
	b := h.AddGrid(0, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 8, 8}), 2, amr.NoGrid)
	// ca spans fine x in [2,6): coarse x in [1,3), so it straddles a
	// level-0 split at x=2 (the SplitGrid test relies on this).
	ca := h.AddGrid(1, geom.BoxFromShape(geom.Index{2, 0, 0}, geom.Index{4, 4, 4}), 1, a.ID)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{8, 0, 0}, geom.Index{4, 4, 4}), 3, b.ID)
	h.AddGrid(2, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 4, 4}), 1, ca.ID)
	return sys, h, l
}

func mustVerify(t *testing.T, l *Ledger, when string) {
	t.Helper()
	if err := l.Verify(); err != nil {
		t.Fatalf("%s: ledger diverged from recompute: %v", when, err)
	}
}

func TestLedgerTracksBuildExactly(t *testing.T) {
	sys, h, l := ledgerFixture(t)
	mustVerify(t, l, "after build")
	// Hand-checked aggregates: level-0 slabs are 256 cells each, the
	// level-1 children 64 cells (weight 2), the level-2 grandchild 64
	// cells (weight 4).
	if got := l.TotalCells(); got != 256+256+64+64+64 {
		t.Errorf("TotalCells = %d", got)
	}
	if got := l.ProcCells(0, 0); got != 256 {
		t.Errorf("ProcCells(0,0) = %v", got)
	}
	// Group 0 subtree: 256 + 64*2 + 64*4 = 640; group 1: 256 + 64*2.
	if got := l.GroupSubtreeWork(0); got != 640 {
		t.Errorf("GroupSubtreeWork(0) = %v", got)
	}
	if got := l.GroupSubtreeWork(1); got != 384 {
		t.Errorf("GroupSubtreeWork(1) = %v", got)
	}
	if got := l.GroupLevel0Cells(0); got != 256 {
		t.Errorf("GroupLevel0Cells(0) = %d", got)
	}
	a := h.Grids(0)[0]
	if got := l.SubtreeWork(a.ID); got != 640 {
		t.Errorf("SubtreeWork(root A) = %v", got)
	}
	_ = sys
}

func TestLedgerTracksOwnerChanges(t *testing.T) {
	sys, h, l := ledgerFixture(t)
	a := h.Grids(0)[0]
	// Within-group move: group aggregates stay put, proc ones shift.
	h.SetOwner(a, 1)
	mustVerify(t, l, "intra-group SetOwner")
	if l.ProcCells(0, 0) != 0 || l.ProcCells(0, 1) != 256 {
		t.Error("proc cells did not follow intra-group move")
	}
	if l.GroupSubtreeWork(0) != 640 {
		t.Error("intra-group move must not change group subtree work")
	}
	// Cross-group move: the whole subtree's work follows the root.
	h.SetOwner(a, 3)
	mustVerify(t, l, "cross-group SetOwner")
	if got := l.GroupSubtreeWork(1); got != 640+384 {
		t.Errorf("GroupSubtreeWork(1) = %v after cross-group move", got)
	}
	if got := l.GroupLevel0Cells(0); got != 0 {
		t.Errorf("GroupLevel0Cells(0) = %d after cross-group move", got)
	}
	// No-op move fires no event.
	before := l.EventCount()
	h.SetOwner(a, 3)
	if l.EventCount() != before {
		t.Error("same-owner SetOwner must be a no-op")
	}
	_ = sys
}

func TestLedgerTracksRemovalAndClear(t *testing.T) {
	_, h, l := ledgerFixture(t)
	// Remove the grandchild, then a child: each removal must peel only
	// that grid's own weighted work off the ancestor chain.
	g2 := h.Grids(2)[0]
	h.RemoveGrid(g2.ID)
	mustVerify(t, l, "remove level-2")
	if got := l.GroupSubtreeWork(0); got != 256+64*2 {
		t.Errorf("GroupSubtreeWork(0) = %v after grandchild removal", got)
	}
	h.RemoveGrid(h.Grids(1)[0].ID)
	mustVerify(t, l, "remove level-1")
	// Regrid-style wipe of the fine levels.
	h.ClearLevelsFrom(1)
	mustVerify(t, l, "ClearLevelsFrom(1)")
	if got := l.TotalCells(); got != 512 {
		t.Errorf("TotalCells = %d after clearing fine levels", got)
	}
	if got := l.GroupSubtreeWork(1); got != 256 {
		t.Errorf("GroupSubtreeWork(1) = %v after clear", got)
	}
}

func TestLedgerTracksSplitWithStraddlingChildren(t *testing.T) {
	_, h, l := ledgerFixture(t)
	l.SetSelfCheck(true) // verify after EVERY event inside the split
	a := h.Grids(0)[0]
	lo, hi := h.SplitGrid(a, 0, 2)
	if lo == nil || hi == nil {
		t.Fatal("split failed")
	}
	mustVerify(t, l, "after split")
	if got := l.TotalCells(); got != 256+256+64+64+64 {
		t.Errorf("TotalCells = %d after split (must conserve)", got)
	}
	// The level-1 child straddled x=4 (fine x in [0,8)), so it was
	// split too; both halves' work must still reach group 0's root sum.
	if got := l.GroupSubtreeWork(0); got != 640 {
		t.Errorf("GroupSubtreeWork(0) = %v after split", got)
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("split broke nesting: %v", err)
	}
}

func TestLedgerCounters(t *testing.T) {
	_, h, l := ledgerFixture(t)
	if l.Rebuilds() != 0 {
		t.Errorf("initial build must not count as a rebuild, got %d", l.Rebuilds())
	}
	if l.EventCount() != 5 {
		t.Errorf("EventCount = %d after 5 AddGrid events", l.EventCount())
	}
	l.Rebuild()
	if l.Rebuilds() != 1 || l.EventCount() != 0 {
		t.Errorf("Rebuild must bump rebuilds and reset events: %d, %d", l.Rebuilds(), l.EventCount())
	}
	mustVerify(t, l, "after explicit rebuild")
	_ = h
}

func TestLedgerSelfCheckPanicsOnCorruption(t *testing.T) {
	_, h, l := ledgerFixture(t)
	l.SetSelfCheck(true)
	// Corrupt an aggregate behind the ledger's back; the next event's
	// self-check must catch it.
	l.procCells[0][0]++
	defer func() {
		if recover() == nil {
			t.Error("self-check did not catch a corrupted aggregate")
		}
	}()
	h.SetOwner(h.Grids(0)[1], 3)
}
