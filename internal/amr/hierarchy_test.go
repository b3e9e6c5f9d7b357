package amr

import (
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
)

func newH(t *testing.T, n, maxLevel int, withData bool) *Hierarchy {
	t.Helper()
	return New(geom.UnitCube(n), 2, maxLevel, 1, withData, "q")
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestNewValidation(t *testing.T) {
	assertPanics(t, "empty domain", func() {
		New(geom.Box{Lo: geom.Index{1, 0, 0}, Hi: geom.Index{0, 0, 0}}, 2, 1, 1, false)
	})
	assertPanics(t, "bad factor", func() { New(geom.UnitCube(4), 1, 1, 1, false) })
	assertPanics(t, "bad level", func() { New(geom.UnitCube(4), 2, -1, 1, false) })
}

func TestDomainAt(t *testing.T) {
	h := newH(t, 8, 2, false)
	if h.DomainAt(0) != geom.UnitCube(8) {
		t.Error("level-0 domain wrong")
	}
	if h.DomainAt(2) != geom.UnitCube(32) {
		t.Errorf("level-2 domain = %v", h.DomainAt(2))
	}
}

func TestAddGridAndLookup(t *testing.T) {
	h := newH(t, 8, 1, true)
	g := h.AddGrid(0, geom.UnitCube(8), 3, NoGrid)
	if h.Grid(g.ID) != g {
		t.Error("lookup by ID failed")
	}
	if g.Owner != 3 || g.Level != 0 {
		t.Error("grid metadata wrong")
	}
	if g.Patch == nil {
		t.Error("WithData hierarchy must allocate patches")
	}
	if g.NumCells() != 512 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if g.Bytes(1) != 512*8 {
		t.Errorf("Bytes = %d", g.Bytes(1))
	}
	c := h.AddGrid(1, geom.UnitCube(8), 3, g.ID)
	if h.Children(g)[0] != c {
		t.Error("Children lookup failed")
	}
}

func TestAddGridValidation(t *testing.T) {
	h := newH(t, 8, 1, false)
	assertPanics(t, "bad level", func() { h.AddGrid(5, geom.UnitCube(2), 0, NoGrid) })
	assertPanics(t, "empty box", func() {
		h.AddGrid(0, geom.Box{Lo: geom.Index{1, 0, 0}, Hi: geom.Index{0, 0, 0}}, 0, NoGrid)
	})
	assertPanics(t, "escapes domain", func() { h.AddGrid(0, geom.UnitCube(9), 0, NoGrid) })
	assertPanics(t, "orphan fine grid", func() { h.AddGrid(1, geom.UnitCube(2), 0, NoGrid) })
}

func TestRemoveGrid(t *testing.T) {
	h := newH(t, 8, 1, false)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	c := h.AddGrid(1, geom.UnitCube(4), 0, g.ID)
	assertPanics(t, "remove with child", func() { h.RemoveGrid(g.ID) })
	h.RemoveGrid(c.ID)
	h.RemoveGrid(g.ID)
	if len(h.Grids(0)) != 0 || h.Grid(g.ID) != nil {
		t.Error("RemoveGrid left residue")
	}
	h.RemoveGrid(GridID(999)) // unknown ID is a no-op
}

func TestRemoveGridKeepsPositions(t *testing.T) {
	// RemoveGrid locates the grid by its maintained position; every
	// survivor's position must track the shrinking level list whether the
	// removal hits the front, the middle or the back.
	h := newH(t, 8, 0, false)
	var ids []GridID
	for x := 0; x < 8; x++ {
		g := h.AddGrid(0, geom.BoxFromShape(geom.Index{x, 0, 0}, geom.Index{1, 8, 8}), 0, NoGrid)
		ids = append(ids, g.ID)
	}
	check := func(when string, want []GridID) {
		t.Helper()
		lv := h.Grids(0)
		if len(lv) != len(want) {
			t.Fatalf("%s: %d grids left, want %d", when, len(lv), len(want))
		}
		for i, g := range lv {
			if g.ID != want[i] || g.pos != i {
				t.Errorf("%s: slot %d holds grid %d at pos %d, want grid %d at pos %d", when, i, g.ID, g.pos, want[i], i)
			}
		}
	}
	h.RemoveGrid(ids[0])
	check("front", ids[1:])
	h.RemoveGrid(ids[4])
	check("middle", []GridID{ids[1], ids[2], ids[3], ids[5], ids[6], ids[7]})
	h.RemoveGrid(ids[7])
	check("back", []GridID{ids[1], ids[2], ids[3], ids[5], ids[6]})

	// A grid whose recorded position went stale is a corrupted level
	// list, not something to search for.
	h.Grids(0)[1].pos = 3
	assertPanics(t, "stale position", func() { h.RemoveGrid(ids[2]) })
}

func TestClearLevelsFrom(t *testing.T) {
	h := newH(t, 8, 2, false)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	c := h.AddGrid(1, geom.UnitCube(4), 0, g.ID)
	h.AddGrid(2, geom.UnitCube(4), 0, c.ID)
	h.ClearLevelsFrom(1)
	if h.NumLevels() != 1 {
		t.Errorf("NumLevels = %d", h.NumLevels())
	}
	if len(h.Grids(1)) != 0 || len(h.Grids(2)) != 0 {
		t.Error("fine levels not cleared")
	}
	if h.Grid(g.ID) == nil {
		t.Error("level 0 must survive")
	}
}

func TestTotalCellsAndBoxes(t *testing.T) {
	h := newH(t, 8, 0, false)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 8, 8}), 0, NoGrid)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 8, 8}), 1, NoGrid)
	if h.TotalCells(0) != 512 {
		t.Errorf("TotalCells = %d", h.TotalCells(0))
	}
	if len(h.Boxes(0)) != 2 {
		t.Error("Boxes wrong")
	}
	if h.Grids(7) != nil || h.Grids(-1) != nil {
		t.Error("out-of-range Grids should be nil")
	}
}

func TestCheckProperNesting(t *testing.T) {
	h := newH(t, 8, 1, false)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{2, 2, 2}, geom.Index{4, 4, 4}), 0, g.ID)
	if err := h.CheckProperNesting(); err != nil {
		t.Errorf("valid hierarchy rejected: %v", err)
	}
	// Overlapping level-0 grids violate nesting.
	h2 := newH(t, 8, 0, false)
	h2.AddGrid(0, geom.UnitCube(4), 0, NoGrid)
	h2.AddGrid(0, geom.UnitCube(4), 0, NoGrid)
	if err := h2.CheckProperNesting(); err == nil {
		t.Error("overlapping grids must fail nesting check")
	}
	// Child not inside its parent.
	h3 := newH(t, 8, 1, false)
	p3 := h3.AddGrid(0, geom.UnitCube(2), 0, NoGrid)
	h3.AddGrid(1, geom.BoxFromShape(geom.Index{8, 8, 8}, geom.Index{2, 2, 2}), 0, p3.ID)
	if err := h3.CheckProperNesting(); err == nil {
		t.Error("child outside parent must fail nesting check")
	}
}

func TestSplitGridTilesAndReparents(t *testing.T) {
	h := newH(t, 8, 1, true)
	g := h.AddGrid(0, geom.UnitCube(8), 2, NoGrid)
	g.Patch.FillConstant("q", 5)
	// Child in the low half and one in the high half (x split at 4).
	cl := h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 4, 4}), 2, g.ID)
	ch := h.AddGrid(1, geom.BoxFromShape(geom.Index{10, 10, 10}, geom.Index{4, 4, 4}), 2, g.ID)
	lo, hi := h.SplitGrid(g, 0, 4)
	if lo.Box.NumCells()+hi.Box.NumCells() != 512 {
		t.Error("split lost cells")
	}
	if lo.Owner != 2 || hi.Owner != 2 {
		t.Error("owner not inherited")
	}
	if cl.Parent != lo.ID {
		t.Errorf("low child parent = %d, want %d", cl.Parent, lo.ID)
	}
	if ch.Parent != hi.ID {
		t.Errorf("high child parent = %d, want %d", ch.Parent, hi.ID)
	}
	if lo.Patch.At("q", geom.Index{0, 0, 0}) != 5 || hi.Patch.At("q", geom.Index{7, 7, 7}) != 5 {
		t.Error("data not copied on split")
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Errorf("split broke nesting: %v", err)
	}
	assertPanics(t, "bad cut", func() { h.SplitGrid(lo, 0, 0) })
}

func TestSortLevelDeterministic(t *testing.T) {
	h := newH(t, 8, 0, false)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{4, 4, 4}), 0, NoGrid)
	h.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{4, 4, 4}), 0, NoGrid)
	h.SortLevel(0)
	if h.Grids(0)[0].Box.Lo != (geom.Index{0, 0, 0}) {
		t.Error("SortLevel did not order by position")
	}
}

func TestRegridAllCreatesNestedChildren(t *testing.T) {
	h := newH(t, 16, 2, true)
	h.AddGrid(0, geom.UnitCube(16), 0, NoGrid)
	// Flag a blob near the centre at every level.
	flag := func(level int, f *cluster.FlagField) {
		target := geom.BoxFromShape(geom.Index{6, 6, 6}, geom.Index{4, 4, 4}).Refine(pow(2, level))
		setWhere(f, target.Contains)
	}
	n := h.RegridAll(0, flag, DefaultRegridParams(), nil)
	if n == 0 {
		t.Fatal("regrid created nothing")
	}
	if len(h.Grids(1)) == 0 || len(h.Grids(2)) == 0 {
		t.Fatalf("expected grids at levels 1 and 2: %d %d", len(h.Grids(1)), len(h.Grids(2)))
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("regrid broke nesting: %v", err)
	}
	// The flagged region (refined) must be covered by level 1.
	want := geom.BoxFromShape(geom.Index{6, 6, 6}, geom.Index{4, 4, 4}).Refine(2)
	if !h.Boxes(1).ContainsBox(want) {
		t.Error("flagged region not covered by level 1")
	}
}

func TestRegridAllPreservesData(t *testing.T) {
	h := newH(t, 8, 1, true)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	g.Patch.FillConstant("q", 3)
	flag := func(level int, f *cluster.FlagField) {
		setWhere(f, func(i geom.Index) bool { return i[0] < 4 })
	}
	h.RegridAll(0, flag, RegridParams{Cluster: cluster.DefaultParams()}, nil)
	for _, c := range h.Grids(1) {
		if got := c.Patch.At("q", c.Box.Lo); got != 3 {
			t.Errorf("child data not prolonged: %v", got)
		}
	}
}

func TestRegridAllCopiesOldFineData(t *testing.T) {
	h := newH(t, 8, 1, true)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	g.Patch.FillConstant("q", 1)
	flag := func(level int, f *cluster.FlagField) {
		setWhere(f, func(i geom.Index) bool { return i[0] < 4 })
	}
	h.RegridAll(0, flag, RegridParams{Cluster: cluster.DefaultParams()}, nil)
	// Write a distinctive fine-level value, then regrid again with the
	// same flags: the new fine grids must carry the old fine value,
	// not the prolonged coarse value.
	for _, c := range h.Grids(1) {
		c.Patch.FillConstant("q", 42)
	}
	h.RegridAll(0, flag, RegridParams{Cluster: cluster.DefaultParams()}, nil)
	for _, c := range h.Grids(1) {
		if got := c.Patch.At("q", c.Box.Lo); got != 42 {
			t.Errorf("old fine data lost on regrid: %v", got)
		}
	}
}

func TestRegridPlacerControlsOwnership(t *testing.T) {
	h := newH(t, 8, 1, false)
	h.AddGrid(0, geom.UnitCube(8), 7, NoGrid)
	flag := func(level int, f *cluster.FlagField) {
		setWhere(f, func(i geom.Index) bool { return i[0] < 2 })
	}
	h.RegridAll(0, flag, DefaultRegridParams(), func(b geom.Box, p *Grid) int { return 9 })
	for _, c := range h.Grids(1) {
		if c.Owner != 9 {
			t.Errorf("placer ignored: owner %d", c.Owner)
		}
	}
}

func TestRegridNoFlagsClearsFineLevels(t *testing.T) {
	h := newH(t, 8, 1, false)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.UnitCube(4), 0, g.ID)
	h.RegridAll(0, func(int, *cluster.FlagField) {}, DefaultRegridParams(), nil)
	if len(h.Grids(1)) != 0 {
		t.Error("regrid with no flags must clear fine levels")
	}
}

// setWhere flags every cell of f for which pred holds.
func setWhere(f *cluster.FlagField, pred func(geom.Index) bool) {
	f.SetRows(f.Box, func(row cluster.Row, x0, y, z int) {
		for k := range row.Len() {
			if pred(geom.Index{x0 + k, y, z}) {
				row.Set(k)
			}
		}
	})
}

// flagged reports whether cell i of f is flagged.
func flagged(f *cluster.FlagField, i geom.Index) bool {
	return f.CountIn(geom.Box{Lo: i, Hi: i}) == 1
}

func TestBufferFlagsExpands(t *testing.T) {
	f := cluster.NewFlagField(geom.UnitCube(8))
	one := func(at geom.Index) func(geom.Index) bool {
		return func(i geom.Index) bool { return i == at }
	}
	setWhere(f, one(geom.Index{4, 4, 4}))
	f.Dilate(0)
	if f.Count() != 1 {
		t.Errorf("zero buffer changed the count to %d", f.Count())
	}
	f.Dilate(1)
	if f.Count() != 27 || !flagged(f, geom.Index{3, 5, 4}) || flagged(f, geom.Index{2, 4, 4}) {
		t.Errorf("buffered count = %d, want the 27 cells around (4,4,4)", f.Count())
	}
	// Clipping at the domain edge.
	f2 := cluster.NewFlagField(geom.UnitCube(8))
	setWhere(f2, one(geom.Index{0, 0, 0}))
	f2.Dilate(1)
	if got := f2.Count(); got != 8 {
		t.Errorf("corner buffer = %d, want 8", got)
	}
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func TestFlagWhereGradient(t *testing.T) {
	h := newH(t, 8, 1, true)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	// A step at x=4: gradient spike at the interface only.
	g.Patch.FillFunc("q", func(i geom.Index) float64 {
		if i[0] < 4 {
			return 1
		}
		return 0
	})
	f := h.FlagFieldFor(0)
	h.FlagWhereGradient(0, "q", 0.5, f)
	if f.Count() != 2*8*8 {
		t.Errorf("flag count = %d, want 128 (two planes either side of the jump)", f.Count())
	}
	if !flagged(f, geom.Index{3, 0, 0}) || !flagged(f, geom.Index{4, 0, 0}) {
		t.Error("cells adjacent to the jump must be flagged")
	}
	if flagged(f, geom.Index{0, 0, 0}) || flagged(f, geom.Index{7, 7, 7}) {
		t.Error("smooth cells must not be flagged")
	}
	// Plan-only hierarchies cannot gradient-flag.
	h2 := newH(t, 8, 1, false)
	h2.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	assertPanics(t, "plan-only gradient", func() {
		h2.FlagWhereGradient(0, "q", 0.5, h2.FlagFieldFor(0))
	})
}

// TestFlagWhereGradientMatchesPerCell compares the row-wise gradient
// flagging with the per-cell walk it replaced, on several grids whose
// boxes do not start at the field's corner and a field that is rough
// enough for every branch of the comparison to decide some cell. Both
// fields hold flags already, which the gradient must only add to.
func TestFlagWhereGradientMatchesPerCell(t *testing.T) {
	h := newH(t, 12, 1, true)
	for i, b := range (geom.BoxList{h.Domain}).SplitEvenly(5) {
		g := h.AddGrid(0, b, i, NoGrid)
		g.Patch.FillFunc("q", func(c geom.Index) float64 {
			return float64((c[0]*c[0]*7+c[1]*13+c[2]*c[1]*5)%11) * 0.1
		})
	}
	for _, threshold := range []float64{0.05, 0.35, 0.65, 0.95} {
		got, want := h.FlagFieldFor(0), h.FlagFieldFor(0)
		earlier := func(i geom.Index) bool { return (i[0]+2*i[1]+3*i[2])%7 == 0 }
		setWhere(got, earlier)
		setWhere(want, earlier)
		h.FlagWhereGradient(0, "q", threshold, got)
		for _, g := range h.Grids(0) {
			q := g.Patch.Field("q")
			gb := g.Patch.Grown()
			s := gb.Shape()
			stride := [3]int{1, s[0], s[0] * s[1]}
			setWhere(want, func(i geom.Index) bool {
				if !g.Box.Contains(i) {
					return false
				}
				off := gb.Offset(i)
				for d := 0; d < 3; d++ {
					if dv := q[off+stride[d]] - q[off]; dv > threshold || -dv > threshold {
						return true
					}
					if dv := q[off] - q[off-stride[d]]; dv > threshold || -dv > threshold {
						return true
					}
				}
				return false
			})
		}
		if got.Count() != want.Count() {
			t.Fatalf("threshold %g: %d cells flagged, per-cell walk flags %d", threshold, got.Count(), want.Count())
		}
		h.Domain.ForEach(func(i geom.Index) {
			if flagged(got, i) != flagged(want, i) {
				t.Fatalf("threshold %g: cell %v flagged=%v, per-cell walk says %v", threshold, i, flagged(got, i), flagged(want, i))
			}
		})
		if threshold > 0.3 && threshold < 0.7 && (want.Count() == 0 || want.Count() == int(h.Domain.NumCells())) {
			t.Errorf("threshold %g flags %d cells; the comparison decides nothing", threshold, want.Count())
		}
	}
}

func TestSplitGridSplitsStraddlingChildren(t *testing.T) {
	h := newH(t, 8, 2, true)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	// A child straddling the x=4 plane (fine plane 8), with its own
	// grandchild straddling too.
	c := h.AddGrid(1, geom.BoxFromShape(geom.Index{4, 0, 0}, geom.Index{8, 4, 4}), 0, g.ID)
	h.AddGrid(2, geom.BoxFromShape(geom.Index{12, 0, 0}, geom.Index{8, 4, 4}), 0, c.ID)
	c.Patch.FillConstant("q", 7)
	lo, hi := h.SplitGrid(g, 0, 4)
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("split left hierarchy unnested: %v", err)
	}
	// The straddling child was split: two level-1 grids now exist,
	// one under each half.
	if len(h.Grids(1)) != 2 {
		t.Fatalf("expected straddling child split into 2, got %d", len(h.Grids(1)))
	}
	seenLo, seenHi := false, false
	for _, x := range h.Grids(1) {
		switch x.Parent {
		case lo.ID:
			seenLo = true
		case hi.ID:
			seenHi = true
		}
		if x.Patch.At("q", x.Box.Lo) != 7 {
			t.Error("child data lost in recursive split")
		}
	}
	if !seenLo || !seenHi {
		t.Error("split children not distributed across both halves")
	}
	// The grandchild survived (possibly split) and is nested.
	if len(h.Grids(2)) < 2 {
		t.Errorf("grandchild should have been split with its parent: %d grids", len(h.Grids(2)))
	}
}

func TestSummarize(t *testing.T) {
	h := newH(t, 8, 1, false)
	g := h.AddGrid(0, geom.UnitCube(8), 0, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{8, 8, 8}), 0, g.ID)
	s := h.Summarize()
	if s.Levels != 2 || s.TotalCells != 512+512 {
		t.Errorf("summary = %+v", s)
	}
	if s.CoverageFraction[0] != 1.0 || s.CoverageFraction[1] != 0.125 {
		t.Errorf("coverage = %v", s.CoverageFraction)
	}
	str := s.String()
	if len(str) == 0 || s.Grids[0] != 1 {
		t.Error("summary render wrong")
	}
}
