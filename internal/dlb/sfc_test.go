package dlb

import (
	"math/rand"
	"reflect"
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
			// Boundary-shell cell count: the ghost-exchange volume proxy.
			total += bb.NumCells() - bb.Grow(-1).NumCells()
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
	hi := geom.BoxFromShape(geom.Index{2, 2, 2}, lo.Shape())
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
	migs := mustPolicy("sfc").LocalBalance(ctx, 0)
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
		for j := i; j > 0 && curveKey(geom.Index.MortonKey, grids[j].Box) < curveKey(geom.Index.MortonKey, grids[j-1].Box); j-- {
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
	sfcPartition(ctx, 0, []int{0, 1}, geom.Index.MortonKey)
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
	a := mustPolicy("distributed").GlobalBalance(mk())
	b := mustPolicy("sfc").GlobalBalance(mk())
	if a.Invoked != b.Invoked || a.MovedBytes != b.MovedBytes {
		t.Errorf("SFC global phase diverges from distributed: %+v vs %+v", a, b)
	}
	if (mustPolicy("sfc")).Name() != "sfc-dlb" {
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
	for _, curve := range []string{"sfc", "hilbert-sfc"} {
		sys := machine.WanPair(3, nil) // group 0 = procs 0,1,2
		sys.SetHealth(1, 0)
		h := slabHierarchy(6, []int{1, 1, 1, 1, 1, 1}, []int{0, 0, 0, 0, 0, 0})
		ctx := ctxFor(t, sys, h)
		migs := mustPolicy(curve).LocalBalance(ctx, 0)
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

// The three loops DealByShare replaced, kept as its references: the
// engine's initial decomposition (cumulative share re-summed from zero
// at every test), its post-failure repartition (running cumulative
// share) and the curve partition (re-summed inside the advance loop,
// break-on-less-than form).
func dealInitLevel0(weights, shares []float64) []int {
	var total, shareSum float64
	for _, w := range weights {
		total += w
	}
	for _, s := range shares {
		shareSum += s
	}
	cumShare := func(p int) float64 {
		var s float64
		for i := 0; i <= p; i++ {
			s += shares[i]
		}
		return s
	}
	owner := make([]int, len(weights))
	proc := 0
	var assigned float64
	for i, w := range weights {
		for proc < len(shares)-1 && assigned >= total*cumShare(proc)/shareSum {
			proc++
		}
		owner[i] = proc
		assigned += w
	}
	return owner
}

func dealRepartition(weights, shares []float64) []int {
	var total, shareSum float64
	for _, s := range shares {
		shareSum += s
	}
	for _, w := range weights {
		total += w
	}
	owner := make([]int, len(weights))
	idx := 0
	assigned, cum := 0.0, shares[0]
	for i, w := range weights {
		for idx < len(shares)-1 && assigned >= total*cum/shareSum {
			idx++
			cum += shares[idx]
		}
		owner[i] = idx
		assigned += w
	}
	return owner
}

func dealSFC(weights, shares []float64) []int {
	var total, shareSum float64
	for _, s := range shares {
		shareSum += s
	}
	for _, w := range weights {
		total += w
	}
	owner := make([]int, len(weights))
	var assigned, cum float64
	pi := 0
	for i, w := range weights {
		for pi < len(shares)-1 {
			cum = 0
			for k := 0; k <= pi; k++ {
				cum += shares[k]
			}
			if assigned < total*cum/shareSum {
				break
			}
			pi++
		}
		owner[i] = pi
		assigned += w
	}
	return owner
}

func TestDealByShareMatchesTheLoopsItReplaced(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cells := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(8 * (1 + rng.Intn(64)))
		}
		return w
	}
	// A dead processor never reaches the deal: the callers pass the
	// alive list, so its share is simply absent.
	alive := func(shares []float64, dead int) []float64 {
		return append(append([]float64(nil), shares[:dead]...), shares[dead+1:]...)
	}
	hetero := []float64{1, 0.5, 0.75, 1, 0.3, 1.7, 0.1}
	cases := []struct {
		name            string
		weights, shares []float64
	}{
		{"homogeneous", cells(40), []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"homogeneous, equal items", []float64{64, 64, 64, 64, 64, 64, 64, 64}, []float64{1, 1, 1, 1}},
		{"heterogeneous", cells(57), hetero},
		{"heterogeneous, slowed", cells(33), []float64{1 * 0.5, 1, 0.75 * 0.25, 1}},
		{"one dead processor", cells(40), alive(hetero, 2)},
		{"one survivor", cells(9), []float64{0.5}},
		{"fewer items than receivers", cells(3), hetero},
		{"no items", nil, hetero},
	}
	for _, c := range cases {
		got := DealByShare(c.weights, c.shares)
		for name, ref := range map[string]func(w, s []float64) []int{
			"initLevel0": dealInitLevel0, "repartition": dealRepartition, "sfcPartition": dealSFC,
		} {
			if want := ref(c.weights, c.shares); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DealByShare = %v, the old %s loop gave %v", c.name, got, name, want)
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Errorf("%s: runs not contiguous: %v", c.name, got)
			}
		}
	}
}
