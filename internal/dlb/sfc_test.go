package dlb

import (
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/machine"
)

func TestMortonSegmentsAreCompact(t *testing.T) {
	// The partitioning property that matters: contiguous segments of
	// the Morton curve have less surface (and therefore less boundary
	// communication) than contiguous segments of a raster scan. Split
	// 8³ cells into 8 curve segments and compare total bounding-box
	// surface.
	n := 8
	var cells []geom.Index
	geom.UnitCube(n).ForEach(func(i geom.Index) { cells = append(cells, i) })
	byMorton := append([]geom.Index(nil), cells...)
	for i := 1; i < len(byMorton); i++ {
		for j := i; j > 0 && byMorton[j].MortonKey() < byMorton[j-1].MortonKey(); j-- {
			byMorton[j], byMorton[j-1] = byMorton[j-1], byMorton[j]
		}
	}
	segSurface := func(seq []geom.Index) int64 {
		var total int64
		segLen := len(seq) / 8
		for s := 0; s < 8; s++ {
			bb := geom.Box{Lo: geom.Index{1 << 30, 1 << 30, 1 << 30}, Hi: geom.Index{-(1 << 30), -(1 << 30), -(1 << 30)}}
			for _, i := range seq[s*segLen : (s+1)*segLen] {
				bb.Lo = bb.Lo.Min(i)
				bb.Hi = bb.Hi.Max(i)
			}
			total += bb.SurfaceCells()
		}
		return total
	}
	if segSurface(byMorton) >= segSurface(cells) {
		t.Errorf("Morton segments (surface %d) not more compact than scan segments (%d)",
			segSurface(byMorton), segSurface(cells))
	}
}

func TestMortonKeyMonotoneInOctants(t *testing.T) {
	// All cells of the low octant precede all cells of the high
	// octant (the defining recursive property of the Z-curve).
	lo := geom.UnitCube(2)
	hi := lo.Shift(geom.Index{2, 2, 2})
	var maxLo, minHi uint64 = 0, ^uint64(0)
	lo.ForEach(func(i geom.Index) {
		if k := i.MortonKey(); k > maxLo {
			maxLo = k
		}
	})
	hi.ForEach(func(i geom.Index) {
		if k := i.MortonKey(); k < minHi {
			minHi = k
		}
	})
	if maxLo >= minHi {
		t.Errorf("octant ordering violated: maxLo %d >= minHi %d", maxLo, minHi)
	}
	// Negative components clamp rather than wrap.
	if (geom.Index{-5, 0, 0}).MortonKey() != (geom.Index{0, 0, 0}).MortonKey() {
		t.Error("negative components must clamp to 0")
	}
}

func TestSFCLocalBalanceContiguousRuns(t *testing.T) {
	sys := machine.WanPair(2, nil)
	h := amr.New(geom.UnitCube(8), 2, 1, 1, false, "q")
	// 16 cubes in the low-z half (group 0's region), all on proc 0.
	for x := 0; x < 8; x += 4 {
		for y := 0; y < 8; y += 4 {
			for z := 0; z < 8; z += 2 {
				h.AddGrid(0, geom.BoxFromShape(geom.Index{x, y, z}, geom.Index{4, 4, 2}), 0, amr.NoGrid)
			}
		}
	}
	ctx := ctxFor(t, sys, h)
	migs := SFCDLB{}.LocalBalance(ctx, 0)
	if len(migs) == 0 {
		t.Fatal("expected migrations")
	}
	for _, m := range migs {
		if !sys.SameGroup(m.From, m.To) {
			t.Fatalf("SFC local balance crossed groups: %+v", m)
		}
	}
	// Perfect balance at this granularity.
	pc := procCells(ctx, 0)
	if pc[0] != pc[1] {
		t.Errorf("SFC balance uneven: %v vs %v", pc[0], pc[1])
	}
	// Each processor owns a contiguous run of the Morton order.
	grids := append([]*amr.Grid(nil), h.Grids(0)...)
	for i := 1; i < len(grids); i++ {
		for j := i; j > 0 && mortonOf(grids[j].Box) < mortonOf(grids[j-1].Box); j-- {
			grids[j], grids[j-1] = grids[j-1], grids[j]
		}
	}
	switches := 0
	for i := 1; i < len(grids); i++ {
		if grids[i].Owner != grids[i-1].Owner {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("expected one owner switch along the curve, got %d", switches)
	}
}

func TestSFCRespectsPerfWeights(t *testing.T) {
	// Partition directly over a mixed-speed processor set (the local
	// phase itself never crosses groups, so drive the partitioner).
	sys := machine.Heterogeneous(1, 1, 0.5, nil)
	h := slabHierarchy(6, []int{1, 1, 1, 1, 1, 1}, []int{0, 0, 0, 0, 0, 0})
	ctx := ctxFor(t, sys, h)
	sfcPartition(ctx, 0, []int{0, 1}, SFCDLB{}.keyOf)
	pc := procCells(ctx, 0)
	if pc[0] != 144 || pc[1] != 72 {
		t.Errorf("perf-weighted SFC split = %v / %v, want 144 / 72", pc[0], pc[1])
	}
}

func TestSFCGlobalPhaseMatchesDistributed(t *testing.T) {
	mk := func() *Context {
		sys := machine.WanPair(2, nil)
		h := slabHierarchy(8, []int{2, 2, 2, 2}, []int{0, 1, 0, 2})
		ctx := ctxFor(t, sys, h)
		recordCellLoads(ctx)
		ctx.Load.SetIntervalTime(100)
		return ctx
	}
	a := DistributedDLB{}.GlobalBalance(mk())
	b := SFCDLB{}.GlobalBalance(mk())
	if a.Invoked != b.Invoked || a.MovedBytes != b.MovedBytes {
		t.Errorf("SFC global phase diverges from distributed: %+v vs %+v", a, b)
	}
	if (SFCDLB{}).Name() != "sfc-dlb" {
		t.Error("name wrong")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSFCLocalBalanceSkipsFailedProcs(t *testing.T) {
	// Regression for a fuzz-found invariant violation: the curve
	// partitioner dealt perf-weighted runs over every processor in the
	// group, failed ones included, so after a processor failure the SFC
	// local phase re-assigned grids onto the dead processor and the
	// checkpoint captured them there (owners-alive fired on resume).
	// The runs must be dealt over the alive processors only.
	for _, curve := range []CurveKind{CurveMorton, CurveHilbert} {
		sys := machine.WanPair(3, nil) // group 0 = procs 0,1,2
		sys.SetHealth(1, 0)
		h := slabHierarchy(6, []int{1, 1, 1, 1, 1, 1}, []int{0, 0, 0, 0, 0, 0})
		ctx := ctxFor(t, sys, h)
		migs := SFCDLB{Curve: curve}.LocalBalance(ctx, 0)
		if len(migs) == 0 {
			t.Fatalf("curve %v: expected migrations onto the surviving procs", curve)
		}
		for _, m := range migs {
			if m.To == 1 {
				t.Errorf("curve %v: migration %+v targets the failed processor", curve, m)
			}
		}
		for _, g := range h.Grids(0) {
			if g.Owner == 1 {
				t.Errorf("curve %v: grid %d left on the failed processor", curve, g.ID)
			}
		}
		// The survivors still split the curve evenly.
		pc := procCells(ctx, 0)
		if pc[0] != pc[2] {
			t.Errorf("curve %v: uneven split over survivors: %v vs %v", curve, pc[0], pc[2])
		}
	}
}
