package amr

import (
	"fmt"
	"math/rand"
	"testing"

	"samrdlb/internal/geom"
)

// refCheckProperNesting is CheckProperNesting as it stood while it
// still ended each level with a parent-union pass: every fine grid
// box-subtracted against the whole refined coarser level. The loop
// above that pass has by then proved parent.Box ⊇ g.Box.Coarsen(r) for
// a parent on level l−1, and Refine(Coarsen(b)) ⊇ b, so the pass can
// never be the one that fails. Kept verbatim as the reference the
// shortened check is compared against.
func refCheckProperNesting(h *Hierarchy) error {
	for l := 0; l <= h.MaxLevel; l++ {
		boxes := h.Boxes(l)
		if !boxes.Disjoint() {
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
			parentUnion := h.Boxes(l - 1).Refine(h.RefFactor)
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

// TestCheckProperNestingMatchesReference compares the check with the
// reference above — same nil, same error text — on seeded hierarchies
// from the plan-maintenance generator: each one valid as built, then
// rebuilt from the same seed and broken by each corruption in turn.
func TestCheckProperNestingMatchesReference(t *testing.T) {
	const seeds = 520
	same := func(t *testing.T, what string, seed int64, h *Hierarchy) error {
		t.Helper()
		got, want := h.CheckProperNesting(), refCheckProperNesting(h)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("seed %d, %s: CheckProperNesting = %v, reference = %v", seed, what, got, want)
		}
		return got
	}
	bit := make([]int, len(nestingCorruptions))
	for seed := int64(0); seed < seeds; seed++ {
		if err := same(t, "valid", seed, randomHierarchy(rand.New(rand.NewSource(seed)))); err != nil {
			t.Fatalf("seed %d: generator built an invalid hierarchy: %v", seed, err)
		}
		for i, c := range nestingCorruptions {
			rng := rand.New(rand.NewSource(seed))
			h := randomHierarchy(rng)
			c.corrupt(h, rng)
			if same(t, c.name, seed, h) != nil {
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
}
