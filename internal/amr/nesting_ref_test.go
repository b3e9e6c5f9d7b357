package amr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// disjoint reports whether no two boxes in the list overlap, by
// comparing every pair.
func disjoint(l geom.BoxList) bool {
	for i := range l {
		for j := i + 1; j < len(l); j++ {
			if l[i].Intersects(l[j]) {
				return false
			}
		}
	}
	return true
}

// refCheckProperNesting is CheckProperNesting as it stood while it
// still ended each level with a parent-union pass: every fine grid
// box-subtracted against the whole refined coarser level. The loop
// above that pass has by then proved parent.Box ⊇ g.Box.Coarsen(r) for
// a parent on level l−1, and Refine(Coarsen(b)) ⊇ b, so the pass can
// never be the one that fails. Its overlap test compares every pair of
// a level's boxes and reads no level index, so it is independent of the
// bucket scan that replaced it. Kept as the reference the check is
// compared against.
func refCheckProperNesting(h *Hierarchy) error {
	for l := 0; l <= h.MaxLevel; l++ {
		boxes := h.Boxes(l)
		if !disjoint(boxes) {
			return fmt.Errorf("level %d grids overlap", l)
		}
		dom := h.DomainAt(l)
		for _, g := range h.Grids(l) {
			if !dom.ContainsBox(g.Box) {
				return fmt.Errorf("grid %d escapes level-%d domain", g.ID, l)
			}
			if l == 0 {
				continue
			}
			p := h.Grid(g.Parent)
			if p == nil {
				return fmt.Errorf("grid %d at level %d has no parent", g.ID, l)
			}
			if p.Level != l-1 {
				return fmt.Errorf("grid %d parent at wrong level %d", g.ID, p.Level)
			}
			if !p.Box.ContainsBox(g.Box.Coarsen(h.RefFactor)) {
				return fmt.Errorf("grid %d not nested in parent %d", g.ID, p.ID)
			}
		}
		if l > 0 {
			var parentUnion geom.BoxList
			for _, b := range h.Boxes(l - 1) {
				parentUnion = append(parentUnion, b.Refine(h.RefFactor))
			}
			for _, g := range h.Grids(l) {
				if !parentUnion.ContainsBox(g.Box) {
					return fmt.Errorf("grid %d at level %d escapes parent union", g.ID, l)
				}
			}
		}
	}
	return nil
}

// fineGrid picks a random grid above level 0, or nil when the
// hierarchy has none.
func fineGrid(h *Hierarchy, rng *rand.Rand) *Grid {
	var fine []*Grid
	for l := 1; l <= h.MaxLevel; l++ {
		fine = append(fine, h.Grids(l)...)
	}
	if len(fine) == 0 {
		return nil
	}
	return fine[rng.Intn(len(fine))]
}

// nestingCorruptions each break a valid hierarchy one way, writing the
// grid fields directly where AddGrid would refuse. A corruption that
// finds nothing to break (no fine grid, say) leaves the hierarchy
// valid; the test counts how often each one bit.
var nestingCorruptions = []struct {
	name    string
	corrupt func(h *Hierarchy, rng *rand.Rand)
}{
	{"overlapping siblings", func(h *Hierarchy, rng *rand.Rand) {
		l := rng.Intn(h.NumLevels())
		g := h.Grids(l)[rng.Intn(len(h.Grids(l)))]
		r := 1
		if l > 0 {
			r = h.RefFactor // keep the intruder aligned, so only the overlap is wrong
		}
		h.AddGrid(l, randomBoxIn(rng, g.Box.Coarsen(r)).Refine(r), g.Owner, g.Parent)
	}},
	{"grid escaping its level's domain", func(h *Hierarchy, rng *rand.Rand) {
		l := rng.Intn(h.NumLevels())
		g := h.Grids(l)[rng.Intn(len(h.Grids(l)))]
		d := rng.Intn(geom.Dims)
		g.Box.Hi[d] = h.DomainAt(l).Hi[d] + 1 + rng.Intn(4)
	}},
	{"missing parent", func(h *Hierarchy, rng *rand.Rand) {
		if g := fineGrid(h, rng); g != nil {
			g.Parent = []GridID{NoGrid, h.NextID() + GridID(rng.Intn(8))}[rng.Intn(2)]
		}
	}},
	{"parent on the wrong level", func(h *Hierarchy, rng *rand.Rand) {
		g := fineGrid(h, rng)
		if g == nil {
			return
		}
		// A sibling's level, or (for a level-2 grid) the grandparent's.
		wrong := h.Grids(g.Level)
		if g.Level >= 2 && rng.Intn(2) == 0 {
			wrong = h.Grids(g.Level - 2)
		}
		g.Parent = wrong[rng.Intn(len(wrong))].ID
	}},
	{"child straddling its parent's edge", func(h *Hierarchy, rng *rand.Rand) {
		g := fineGrid(h, rng)
		if g == nil {
			return
		}
		// Push one face one coarse cell past the parent's: into a
		// neighbouring coarse grid where there is one (the union pass
		// alone would accept that), clipped to the domain.
		edge := h.Grid(g.Parent).Box.Refine(h.RefFactor)
		dom := h.DomainAt(g.Level)
		d := rng.Intn(geom.Dims)
		if rng.Intn(2) == 0 {
			g.Box.Hi[d] = min(edge.Hi[d]+h.RefFactor, dom.Hi[d])
		} else {
			g.Box.Lo[d] = max(edge.Lo[d]-h.RefFactor, dom.Lo[d])
		}
	}},
	{"child nested in no coarse grid at all", func(h *Hierarchy, rng *rand.Rand) {
		g := fineGrid(h, rng)
		if g == nil {
			return
		}
		// Shrink the parent to one cell in a far corner of its box: the
		// coarse level now has a hole, and the child sits in it.
		p := h.Grid(g.Parent)
		c := g.Box.Coarsen(h.RefFactor)
		corner := p.Box.Lo
		if c.ContainsBox(geom.Box{Lo: corner, Hi: corner}) {
			corner = p.Box.Hi
		}
		p.Box = geom.Box{Lo: corner, Hi: corner}
	}},
}

// sameAsReference fails the test unless CheckProperNesting and the
// reference agree on h — same nil, same error text — and returns the
// check's answer.
func sameAsReference(t *testing.T, what string, h *Hierarchy) error {
	t.Helper()
	got, want := h.CheckProperNesting(), refCheckProperNesting(h)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: CheckProperNesting = %v, reference = %v", what, got, want)
	}
	return got
}

// TestCheckProperNestingMatchesReference compares the check with the
// reference above on seeded hierarchies from the plan-maintenance
// generator: each one valid as built, then rebuilt from the same seed,
// checked once so its level indexes are live, and broken by each
// corruption in turn — most of them write a box in place, behind the
// index's back. Then on single levels built to sit on the index's
// edge cases (see levelFixtures), each both as built and with one box
// moved in place after a check.
func TestCheckProperNestingMatchesReference(t *testing.T) {
	const seeds = 520
	bit := make([]int, len(nestingCorruptions))
	for seed := int64(0); seed < seeds; seed++ {
		what := fmt.Sprintf("seed %d", seed)
		if err := sameAsReference(t, what+", valid", randomHierarchy(rand.New(rand.NewSource(seed)))); err != nil {
			t.Fatalf("%s: generator built an invalid hierarchy: %v", what, err)
		}
		for i, c := range nestingCorruptions {
			rng := rand.New(rand.NewSource(seed))
			h := randomHierarchy(rng)
			if err := h.CheckProperNesting(); err != nil {
				t.Fatalf("%s: generator built an invalid hierarchy: %v", what, err)
			}
			c.corrupt(h, rng)
			if sameAsReference(t, what+", "+c.name, h) != nil {
				bit[i]++
			}
		}
	}
	for i, c := range nestingCorruptions {
		t.Logf("%s: rejected on %d of %d seeds", c.name, bit[i], seeds)
		if bit[i] < seeds/4 {
			t.Errorf("%s: rejected on only %d of %d seeds — the corruption does not corrupt", c.name, bit[i], seeds)
		}
	}

	for _, f := range levelFixtures {
		rejected := 0
		for seed := int64(0); seed < 200; seed++ {
			what := fmt.Sprintf("%s, seed %d", f.name, seed)
			rng := rand.New(rand.NewSource(seed))
			dom := geom.BoxFromShape(geom.Index{}, geom.Index{8 + rng.Intn(40), 8 + rng.Intn(40), 8 + rng.Intn(40)})
			boxes, moved := f.level(rng, dom)
			h := New(dom, 2, 0, 1, false, "q")
			for _, b := range boxes {
				h.AddGrid(0, b, 0, NoGrid)
			}
			err := sameAsReference(t, what+", as built", h)
			if f.valid && err != nil {
				t.Fatalf("%s: a valid level rejected: %v", what, err)
			}
			if moved != nil {
				if err != nil {
					t.Fatalf("%s: the level is invalid before the move: %v", what, err)
				}
				moved(h)
				err = sameAsReference(t, what+", moved in place", h)
			}
			if err != nil {
				rejected++
			}
		}
		t.Logf("level fixture %s: rejected on %d of 200 seeds", f.name, rejected)
		if !f.valid && rejected < 50 {
			t.Errorf("level fixture %s: rejected on only %d of 200 seeds", f.name, rejected)
		}
	}
}

// tiling splits dom into about n face-touching boxes.
func tiling(rng *rand.Rand, dom geom.Box, n int) geom.BoxList {
	return geom.BoxList{dom}.SplitEvenly(1 + rng.Intn(n))
}

// levelFixtures build one level-0 box list over a random domain. valid
// says every seed must pass. moved, when not nil, writes one box in
// place; it runs after a check of the level as built, which must pass,
// so the moved box is checked against a live index.
var levelFixtures = []struct {
	name  string
	valid bool
	level func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy))
}{
	{"face-touching tiling", true, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		return tiling(rng, dom, 300), nil
	}},
	{"one large grid among small ones", true, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		big := bigBoxIn(rng, dom)
		boxes := geom.BoxList{big}
		for _, rest := range geom.SubtractList(dom, boxes) {
			boxes = append(boxes, tiling(rng, rest, 20)...)
		}
		rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
		return boxes, nil
	}},
	{"single-cell overlap at a corner", false, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		boxes := sparseBoxes(rng, dom)
		g := boxes[rng.Intn(len(boxes))]
		corner := geom.Box{Lo: g.Hi, Hi: g.Hi.Add(geom.Index{rng.Intn(3), rng.Intn(3), rng.Intn(3)})}
		return append(boxes, corner.Intersect(dom)), nil
	}},
	{"single-cell overlap into a large grid", false, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		big := bigBoxIn(rng, dom)
		cell := big.Lo
		if rng.Intn(2) == 0 {
			cell = big.Hi
		}
		return geom.BoxList{big, {Lo: cell, Hi: cell}}, nil
	}},
	{"one box grown in place by a layer", false, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		return tiling(rng, dom, 300), func(h *Hierarchy) {
			g := h.Grids(0)[rng.Intn(len(h.Grids(0)))]
			d := rng.Intn(geom.Dims)
			if g.Box.Lo[d] > dom.Lo[d] && (g.Box.Hi[d] == dom.Hi[d] || rng.Intn(2) == 0) {
				g.Box.Lo[d]--
			} else if g.Box.Hi[d] < dom.Hi[d] {
				g.Box.Hi[d]++
			}
		}
	}},
	{"one box slid in place onto the large grid", false, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		big := bigBoxIn(rng, dom)
		boxes := geom.BoxList{big}
		for _, rest := range geom.SubtractList(dom, boxes) {
			boxes = append(boxes, tiling(rng, rest, 20)...)
		}
		return boxes, func(h *Hierarchy) {
			g := h.Grids(0)[1+rng.Intn(len(h.Grids(0))-1)]
			shift := geom.Index{}
			for d := 0; d < geom.Dims; d++ {
				switch {
				case g.Box.Lo[d] > big.Hi[d]:
					shift[d] = big.Hi[d] - g.Box.Lo[d]
				case g.Box.Hi[d] < big.Lo[d]:
					shift[d] = big.Lo[d] - g.Box.Hi[d]
				}
			}
			g.Box = geom.Box{Lo: g.Box.Lo.Add(shift), Hi: g.Box.Hi.Add(shift)}
		}
	}},
	{"one box pushed past the domain edge", false, func(rng *rand.Rand, dom geom.Box) (geom.BoxList, func(*Hierarchy)) {
		return tiling(rng, dom, 300), func(h *Hierarchy) {
			g := h.Grids(0)[rng.Intn(len(h.Grids(0)))]
			d := rng.Intn(geom.Dims)
			if rng.Intn(2) == 0 {
				g.Box.Hi[d] = dom.Hi[d] + 1 + rng.Intn(3)
			} else {
				g.Box.Lo[d] = dom.Lo[d] - 1 - rng.Intn(3)
			}
		}
	}},
}

// bigBoxIn returns a box spanning at least half of dom on every axis,
// so it straddles many index buckets.
func bigBoxIn(rng *rand.Rand, dom geom.Box) geom.Box {
	var b geom.Box
	for d := 0; d < geom.Dims; d++ {
		e := dom.Shape()[d]
		n := min((e+1)/2+rng.Intn(e/2+1), e-1) // never all of dom: small ones remain
		b.Lo[d] = dom.Lo[d] + rng.Intn(e-n+1)
		b.Hi[d] = b.Lo[d] + n - 1
	}
	return b
}

// sparseBoxes places up to 40 random disjoint boxes in dom, leaving gaps.
func sparseBoxes(rng *rand.Rand, dom geom.Box) geom.BoxList {
	var boxes geom.BoxList
	for len(boxes) == 0 {
		for i := 0; i < 40; i++ {
			if b := randomBoxIn(rng, dom); !slices.ContainsFunc(boxes, b.Intersects) {
				boxes = append(boxes, b)
			}
		}
	}
	return boxes
}

// TestCheckProperNestingAllocatesNothing pins that, once every level's
// index is current, the check reads the levels and their indexes and
// allocates nothing — no Boxes copy, no per-call index.
func TestCheckProperNestingAllocatesNothing(t *testing.T) {
	h := randomHierarchy(rand.New(rand.NewSource(7)))
	if err := h.CheckProperNesting(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := h.CheckProperNesting(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CheckProperNesting allocates %.0f times per call, want 0", n)
	}
}
