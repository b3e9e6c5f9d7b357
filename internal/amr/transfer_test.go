package amr

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// sameTable reports whether two served tables are one slice.
func sameTable(a, b []Transfer) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestTransfersFollowOwnership checks level l's processor-pair tables
// against the naive aggregation of the scan plans under the current
// owners, after each kind of change that reaches them: an owner change
// at l (either end of a sibling message), one at l−1 (the source of a
// parent prolongation and the destination of every restriction), a
// structural change, and a Save/Load round trip into a new hierarchy.
// An owner change at l+1 must keep serving the same slices.
// Last, the aggregation itself is checked on a hand-made plan.
func TestTransfersFollowOwnership(t *testing.T) {
	const l = 1
	h := randomHierarchy(rand.New(rand.NewSource(7)))
	check := func(step string, h *Hierarchy) (ghost, restrict []Transfer) {
		t.Helper()
		ghost, restrict = h.GhostTransfers(l), h.RestrictTransfers(l)
		if want := naivePairs(h, h.GhostPlanScan(l, false)); !slices.Equal(ghost, want) {
			t.Errorf("%s: ghost table\n got %v\nwant %v", step, ghost, want)
		}
		if want := naivePairs(h, h.RestrictPlan(l, false)); !slices.Equal(restrict, want) {
			t.Errorf("%s: restrict table\n got %v\nwant %v", step, restrict, want)
		}
		return ghost, restrict
	}

	// The fixture: a level-l grid that prolongs from its parent, and a
	// level-(l+1) grid.
	var child *Grid
	for _, m := range h.GhostPlanCached(l) {
		if m.Kind == ParentProlong {
			child = h.Grid(m.Dst)
			break
		}
	}
	if child == nil || len(h.Grids(l+1)) == 0 {
		t.Fatal("fixture: no parent prolongation at level 1, or no level 2")
	}
	ghost, restrict := check("first build", h)
	if len(ghost) == 0 || len(restrict) == 0 {
		t.Fatalf("fixture: empty tables %v, %v", ghost, restrict)
	}

	g2, r2 := check("unchanged", h)
	if !sameTable(g2, ghost) || !sameTable(r2, restrict) {
		t.Error("an unchanged level rebuilt its tables")
	}
	h.SetOwner(h.Grids(l + 1)[0], 6)
	g2, r2 = check("SetOwner at l+1", h)
	if !sameTable(g2, ghost) || !sameTable(r2, restrict) {
		t.Error("an owner change at l+1 rebuilt level l's tables")
	}

	// Owners beyond the fixture's 0..3 also grow the pair slot.
	h.SetOwner(child, 5)
	check("SetOwner at l", h)
	h.SetOwner(h.Grid(child.Parent), 7)
	check("SetOwner at l-1", h)

	removed := false
	for _, g := range h.Grids(l) {
		if g != child && len(h.Children(g)) == 0 {
			h.RemoveGrid(g.ID)
			removed = true
			break
		}
	}
	if !removed {
		t.Fatal("fixture: no childless level-1 grid to remove")
	}
	check("structural change", h)

	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lg, lr := check("Save/Load", loaded)
	if g, r := h.GhostTransfers(l), h.RestrictTransfers(l); !slices.Equal(lg, g) || !slices.Equal(lr, r) {
		t.Errorf("Save/Load: the loaded tables differ from the saved hierarchy's")
	}
	loaded.SetOwner(loaded.Grids(l)[0], 3)
	check("SetOwner after Save/Load", loaded)

	// The run memo against the per-message aggregation on a hand-made
	// plan in which a (Src, Dst) pair repeats with other pairs in
	// between, same-owner runs (the memo's skip state) sit between
	// charged ones, and a Src run continues across a change of Dst.
	dom := geom.UnitCube(8)
	h = New(dom, 2, 0, 1, false, "q")
	var ids []GridID // eight grids, owner i%4
	for i, b := range (geom.BoxList{dom}).SplitEvenly(8) {
		ids = append(ids, h.AddGrid(0, b, i%4, NoGrid).ID)
	}
	a, a2, b, c, d := ids[0], ids[4], ids[1], ids[2], ids[3]
	msg := func(src, dst GridID, bytes int64) Message {
		return Message{Src: src, Dst: dst, Bytes: bytes}
	}
	for _, plan := range [][]Message{nil, {
		msg(b, a, 1), msg(b, a, 2), // a run of one pair
		msg(a2, a, 4),                // same owner: skipped
		msg(b, a, 8),                 // the pair again, after the skip
		msg(c, a, 16), msg(b, a, 32), // … and after another pair
		msg(b, a2, 64),                 // same Src, new Dst, same owners
		msg(b, c, 128), msg(b, d, 256), // same Src, new Dst, new owners
		msg(a, a2, 512), msg(a, a2, 1024), // a same-owner run of two
		msg(d, a2, 2048), msg(a, b, 4096), msg(a2, b, 8192), // two grids of one owner → one pair
	}} {
		h.planMu.Lock()
		got := h.aggregate(plan, h.ownerSpan(0))
		h.planMu.Unlock()
		if want := naivePairs(h, plan); !slices.Equal(got, want) {
			t.Errorf("hand-made plan: aggregated pairs\n got %v\nwant %v", got, want)
		}
	}
}
