package amr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
)

// refRegridAll is RegridAll as it was before the regrid asked the
// level index: every cluster box is intersected with every grid of the
// level, and every new child's data sources are found by scanning the
// whole coarse level and the whole old same-level list. It is the
// reference the indexed regrid must reproduce exactly.
func (h *Hierarchy) refRegridAll(base int, flag Flagger, p RegridParams, place Placer) int {
	// Capture old fine grids for data copy before destroying them.
	old := make([][]*Grid, h.MaxLevel+1)
	for l := base + 1; l <= h.MaxLevel; l++ {
		old[l] = slices.Clone(h.Grids(l))
	}
	h.ClearLevelsFrom(base + 1)

	created := 0
	for l := base; l < h.MaxLevel; l++ {
		if len(h.Grids(l)) == 0 {
			break
		}
		f := h.FlagFieldFor(l)
		if f == nil {
			break
		}
		flag(l, f)
		if f.Count() == 0 {
			break
		}
		f.Dilate(p.Buffer)
		boxes := cluster.Cluster(f, p.Cluster)
		madeAny := false
		// Children are created sequentially (AddGrid mutates the
		// hierarchy) but their data is initialised afterwards in one
		// parallel batch: each init writes only its own child's patch
		// and reads only coarse and old same-level patches, none of
		// which a sibling init writes.
		var pending []*Grid
		for _, parent := range h.Grids(l) {
			for _, b := range boxes {
				piece := b.Intersect(parent.Box)
				if piece.Empty() {
					continue
				}
				childBox := piece.Refine(h.RefFactor)
				owner := parent.Owner
				if place != nil {
					owner = place(childBox, parent)
				}
				child := h.AddGrid(l+1, childBox, owner, parent.ID)
				created++
				madeAny = true
				if h.WithData {
					pending = append(pending, child)
				}
			}
		}
		oldL := old[l+1]
		h.pool.ForEach(len(pending), func(i int) {
			h.refInitChildData(pending[i], oldL)
		})
		if !madeAny {
			break
		}
		h.SortLevel(l + 1)
	}
	return created
}

// refInitChildData fills a new child grid by prolongation from every
// overlapping coarse grid, then copies old same-level data where it
// exists (the old solution is more accurate than prolonged data), and
// zeroes the edge and corner ghosts, cell by cell.
// Safe to run concurrently for distinct children: it writes only the
// child's own patch.
func (h *Hierarchy) refInitChildData(child *Grid, oldSameLevel []*Grid) {
	grown := child.Patch.Grown()
	for _, coarse := range h.Grids(child.Level - 1) {
		if coarse.Patch == nil {
			continue
		}
		region := grown.Intersect(coarse.Box.Refine(h.RefFactor))
		if region.Empty() {
			continue
		}
		for _, f := range h.Fields {
			grid.Prolong(child.Patch, coarse.Patch, f, h.RefFactor, region)
		}
	}
	for _, og := range oldSameLevel {
		if og.Patch == nil {
			continue
		}
		region := grown.Intersect(og.Box)
		if region.Empty() {
			continue
		}
		for _, f := range h.Fields {
			grid.CopyRegion(child.Patch, og.Patch, f, region)
		}
	}
	grown.ForEach(func(i geom.Index) {
		out := 0
		for d := range geom.Dims {
			if i[d] < child.Box.Lo[d] || i[d] > child.Box.Hi[d] {
				out++
			}
		}
		if out >= 2 {
			for _, f := range h.Fields {
				child.Patch.Set(f, i, 0)
			}
		}
	})
}

// copyStructure rebuilds h's grids (IDs, boxes, owners, parents, level
// order) in a fresh hierarchy, with field data when withData is set:
// every cell of every patch, ghosts included, gets a value drawn from
// seed, so two copies made with the same seed hold the same bits.
func copyStructure(h *Hierarchy, withData bool, seed int64) *Hierarchy {
	out := New(h.Domain, h.RefFactor, h.MaxLevel, h.NGhost, withData, "q", "rho")
	rng := rand.New(rand.NewSource(seed))
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			ng := out.AddGrid(l, g.Box, g.Owner, g.Parent)
			if ng.ID != g.ID {
				panic("copyStructure: grid IDs diverged")
			}
			if withData {
				for _, f := range out.Fields {
					q := ng.Patch.Field(f)
					for k := range q {
						q[k] = rng.NormFloat64()
					}
				}
			}
		}
	}
	return out
}

// rowFlagger flags, on each level below h's deepest, the rows of two to
// five blobs drawn from rng: boxes inside a level-0 region of at most
// 24³ cells, refined to the level. Blobs wider than a level-0 grid make
// cluster boxes that overlap several parents, which is where the order
// of children is at stake. The flags are a pure function of the level,
// so the same flagger gives both regrids the same flags.
func rowFlagger(rng *rand.Rand, h *Hierarchy) Flagger {
	var lo, ext geom.Index
	for d := 0; d < geom.Dims; d++ {
		ext[d] = 8 + rng.Intn(17)
		lo[d] = h.Domain.Lo[d] + rng.Intn(h.Domain.Shape()[d]-ext[d]+1)
	}
	region := geom.BoxFromShape(lo, ext)
	blobs := make([]geom.BoxList, h.MaxLevel)
	for l := range blobs {
		for range 2 + rng.Intn(4) {
			b := randomBoxIn(rng, region)
			for range l {
				b = b.Refine(h.RefFactor)
			}
			blobs[l] = append(blobs[l], b)
		}
	}
	return func(level int, f *cluster.FlagField) {
		for _, b := range blobs[level] {
			f.SetRows(b, func(row cluster.Row, _, _, _ int) {
				for i := range row.Len() {
					row.Set(i)
				}
			})
		}
	}
}

// placeCall is one Placer invocation: the child box and its parent.
type placeCall struct {
	box    geom.Box
	parent GridID
}

// recordingPlacer returns a Placer that records its call sequence and
// derives an owner from the parent and the box.
func recordingPlacer(calls *[]placeCall) Placer {
	return func(b geom.Box, parent *Grid) int {
		*calls = append(*calls, placeCall{b, parent.ID})
		return (parent.Owner + b.Lo[0] + 2*b.Lo[1] + 3*b.Lo[2]) & 3
	}
}

// firstDiff returns the first index at which the two call sequences
// differ, or -1 when they are equal.
func firstDiff(got, want []placeCall) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// sameRegrid reports the first difference between two hierarchies:
// level lists (ID, box, owner, parent, position), the ID counter, and
// the bits of every patch value.
func sameRegrid(want, got *Hierarchy) error {
	if want.NextID() != got.NextID() {
		return fmt.Errorf("NextID %d, want %d", got.NextID(), want.NextID())
	}
	for l := 0; l <= want.MaxLevel; l++ {
		wg, gg := want.Grids(l), got.Grids(l)
		if len(wg) != len(gg) {
			return fmt.Errorf("level %d holds %d grids, want %d", l, len(gg), len(wg))
		}
		for i, w := range wg {
			g := gg[i]
			if g.ID != w.ID || g.Box != w.Box || g.Owner != w.Owner || g.Parent != w.Parent || g.pos != w.pos {
				return fmt.Errorf("level %d position %d: grid %d %v owner %d parent %d pos %d, want grid %d %v owner %d parent %d pos %d",
					l, i, g.ID, g.Box, g.Owner, g.Parent, g.pos, w.ID, w.Box, w.Owner, w.Parent, w.pos)
			}
			if (w.Patch == nil) != (g.Patch == nil) {
				return fmt.Errorf("level %d grid %d: patch presence differs", l, w.ID)
			}
			if w.Patch == nil {
				continue
			}
			for _, f := range want.Fields {
				wq, gq := w.Patch.Field(f), g.Patch.Field(f)
				for k := range wq {
					if math.Float64bits(wq[k]) != math.Float64bits(gq[k]) {
						return fmt.Errorf("level %d grid %d field %s value %d: %v, want %v", l, w.ID, f, k, gq[k], wq[k])
					}
				}
			}
		}
	}
	return nil
}

// TestRegridAllMatchesReference: the indexed regrid must reproduce the
// scanning reference exactly — the same children in the same order
// (IDs, boxes, owners, parents, level positions, the ID counter), the
// same Placer call sequence, and the same bits in every patch — on
// random hierarchies, plan-only and with data, inline and pooled. Two
// regrids run back to back, so the second copies data from grids the
// first one made.
func TestRegridAllMatchesReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	pools := []*solver.Pool{nil, solver.NewPool(1), solver.NewPool(2), solver.NewPool(4)}
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(500 + seed))
			shape := randomHierarchy(rng)
			base := rng.Intn(shape.MaxLevel)
			flags := []Flagger{rowFlagger(rng, shape), rowFlagger(rng, shape)}
			params := RegridParams{Cluster: cluster.DefaultParams(), Buffer: rng.Intn(2)}
			for _, withData := range []bool{false, true} {
				for pi, pool := range pools {
					name := fmt.Sprintf("data=%v pool %d (%d workers)", withData, pi, pool.Workers())
					want := copyStructure(shape, withData, seed)
					got := copyStructure(shape, withData, seed)
					got.SetPool(pool)
					var wantCalls, gotCalls []placeCall
					for round, flag := range flags {
						wn := want.refRegridAll(base, flag, params, recordingPlacer(&wantCalls))
						gn := got.RegridAll(base, flag, params, recordingPlacer(&gotCalls))
						if gn != wn {
							t.Fatalf("%s round %d: created %d grids, want %d", name, round, gn, wn)
						}
						if i := firstDiff(gotCalls, wantCalls); i >= 0 {
							t.Fatalf("%s round %d: Placer call %d of %d differs (want %d calls)", name, round, i, len(gotCalls), len(wantCalls))
						}
						if err := sameRegrid(want, got); err != nil {
							t.Fatalf("%s round %d: %v", name, round, err)
						}
					}
				}
			}
		})
	}
}
