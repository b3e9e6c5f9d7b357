package amr

import (
	"fmt"
	"slices"
	"sync"

	"samrdlb/internal/geom"
	"samrdlb/internal/solver"
)

// Conservative flux correction ("refluxing", Berger–Colella): when a
// fine level covers part of a coarse level, the coarse cells adjacent
// to the coarse–fine interface were advanced with the coarse flux
// through that interface, while the covered region was advanced (and
// later restricted) with the more accurate fine fluxes. Conservation
// requires replacing the coarse flux with the time- and area-averaged
// fine flux:
//
//	q_C ← q_C ± ( (1/r³) Σ_{substeps × r² fine faces} F_fine − F_coarse )
//
// with the sign depending on which side of the interface the
// uncovered coarse cell lies. The λ-scaled fluxes of both levels are
// directly comparable because λ = dt/dx is the same at every level
// under factor-r subcycling.
//
// Which faces form the interface, who feeds them and where their
// corrections land is pure structure, so it is planned once per
// structure like the fill and restrict plans (the interface plan is
// the cache's fourth kind) and a register is only the plan plus three
// accumulator arrays. Two properties of the plan make feeding a
// register from concurrent per-grid tasks race-free and independent of
// task order:
//
//   - one fine contributor: fine boxes are r-aligned and disjoint, so
//     the r² fine faces tiling an interface face all lie on the
//     boundary plane of the single fine grid covering the face's
//     covered cell — each fine grid owns a contiguous run of table rows
//     and AddFine writes only those;
//   - static coarse writer: a face on a coarse-grid boundary is in two
//     grids' flux sets; the plan names the level-order first of them as
//     the face's writer, which is what a level-order feed with "first
//     write wins" would pick, and AddCoarse writes only the calling
//     grid's own faces.

// interfaceFace is one row of a fine level's face table: a coarse face
// with a fine-covered cell on exactly one side, both cells inside the
// domain. The row keeps only what feeding and applying read; the face
// itself is fineOff's cell of the row's fine grid, coarsened.
type interfaceFace struct {
	// target is the coarse grid holding the uncovered cell the
	// correction applies to (nil where the coarse level does not reach
	// it) and off that cell's offset in its grown patch.
	target *Grid
	off    int32
	// fineOff is the offset, in the contributing fine grid's
	// Fluxes.Faces(D), of the first of the r² fine faces tiling this one.
	fineOff int32
	// D is the dimension the face is normal to.
	D int8
	// Sign is +1 when the face is the uncovered cell's lower face, −1
	// for upper.
	Sign int8
}

// coarseRef is one entry of a coarse grid's work list: a table row the
// grid is the writer of and the face's offset in its Fluxes.Faces(D).
type coarseRef struct {
	face, off int32
}

// interfacePlan is the planned coarse–fine interface of one fine
// level: the face table in a fixed order (fine grid major in level
// order, then dimension, low side before high, then cell order) and
// the per-grid work lists over it.
type interfacePlan struct {
	faces []interfaceFace
	// fine and coarse are the level lists the plan was built for. Work
	// lists are addressed by level-list position; a grid that is not at
	// its position means the structure changed under a live register.
	fine, coarse []*Grid
	// Rows fineStart[k]:fineStart[k+1] belong to fine grid k.
	fineStart []int32
	// coarseRefs[coarseStart[k]:coarseStart[k+1]] is coarse grid k's
	// list, in table order.
	coarseStart []int32
	coarseRefs  []coarseRef
}

// interfacePlan returns the cached interface plan of fine level l,
// rebuilt if the structure of level l or l−1 changed since it was
// last served.
func (h *Hierarchy) interfacePlan(l int) *interfacePlan {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planInterface).iface
}

// gridHolding returns the candidate whose box contains cell, trying
// the previous answer first (candidates are disjoint, so the hint
// cannot change the result).
func gridHolding(cands []*Grid, cell geom.Index, hint *Grid) *Grid {
	if hint != nil && hint.Box.Contains(cell) {
		return hint
	}
	for _, c := range cands {
		if c.Box.Contains(cell) {
			return c
		}
	}
	return nil
}

// buildInterfacePlan discovers fine level l's interface grid by grid:
// on each of the six sides of a fine grid's coarsened box, the layer
// of coarse cells just outside it, minus what neighbouring fine grids
// cover, is exactly that side's uncovered cells — one interface face
// each. With the level indexes the neighbours come from bucket
// queries; with nil indexes (the plancheck baseline) every grid of the
// level is a candidate, which yields the same plan because candidates
// arrive in level-list order either way and subtracting a box that
// does not intersect leaves a decomposition untouched.
func (h *Hierarchy) buildInterfacePlan(l int, li, cli *levelIndex) *interfacePlan {
	r := h.RefFactor
	p := &interfacePlan{fine: slices.Clone(h.Grids(l)), coarse: slices.Clone(h.Grids(l - 1))}
	p.fineStart = make([]int32, len(p.fine)+1)
	p.coarseStart = make([]int32, len(p.coarse)+1)
	dom := h.DomainAt(l - 1)
	scr := getPlanScratch()
	// The table and the refs grow in the scratch and are copied out at
	// their exact size; writers[i] is refs[i]'s writer's level-list
	// position.
	faces, refs, writers := scr.iface[:0], scr.refs[:0], scr.writers[:0]
	for k, g := range p.fine {
		cb := g.Box.Coarsen(r)
		if cb.Refine(r) != g.Box {
			panic(fmt.Sprintf("amr: interface plan: level-%d grid %d box %v is not aligned to refinement factor %d",
				l, g.ID, g.Box, r))
		}
		// One query per level serves all six sides.
		near := cb.Grow(1)
		fineCand, coarseCand := p.fine, p.coarse
		if li != nil {
			scr.cand = li.query(near.Refine(r), scr.cand[:0], scr)
			scr.coarse = cli.query(near, scr.coarse[:0], scr)
			fineCand, coarseCand = scr.cand, scr.coarse
		}
		covered := scr.covered[:0]
		for _, f := range fineCand {
			if fb := f.Box.Coarsen(r); f != g && fb.Intersects(near) {
				covered = append(covered, fb)
			}
		}
		scr.covered = covered
		var target, inner *Grid
		for d := 0; d < geom.Dims; d++ {
			fineFaces := g.Box.GrowDim(d, 0, 1)
			for side := 0; side < 2; side++ {
				// step leads from an uncovered cell across the face into cb.
				slab, step, sign := cb, 1, int8(-1)
				if side == 0 {
					slab.Lo[d], slab.Hi[d] = cb.Lo[d]-1, cb.Lo[d]-1
				} else {
					slab.Lo[d], slab.Hi[d] = cb.Hi[d]+1, cb.Hi[d]+1
					step, sign = -1, +1
				}
				if !dom.ContainsBox(slab) {
					continue // a domain face: no cell on the other side
				}
				for _, ub := range subtractList(slab, covered, scr) {
					ub.ForEach(func(cell geom.Index) {
						in := cell
						in[d] += step
						face := cell // the lower face of the upper of the two cells
						if side == 0 {
							face = in
						}
						f := interfaceFace{D: int8(d), Sign: sign, fineOff: int32(fineFaces.Offset(face.Scale(r)))}
						target = gridHolding(coarseCand, cell, target)
						inner = gridHolding(coarseCand, in, inner)
						if target != nil {
							f.target = target
							f.off = int32(target.Box.Grow(h.NGhost).Offset(cell))
						}
						w := inner
						if w == nil || (target != nil && target.pos < w.pos) {
							w = target
						}
						if w != nil {
							refs = append(refs, coarseRef{
								face: int32(len(faces)),
								off:  int32(w.Box.GrowDim(d, 0, 1).Offset(face)),
							})
							writers = append(writers, int32(w.pos))
						}
						faces = append(faces, f)
					})
				}
			}
		}
		p.fineStart[k+1] = int32(len(faces))
	}
	p.faces = make([]interfaceFace, len(faces))
	copy(p.faces, faces)
	// Group the refs by writer, keeping table order within a writer.
	for _, w := range writers {
		p.coarseStart[w+1]++
	}
	for k := range p.coarse {
		p.coarseStart[k+1] += p.coarseStart[k]
	}
	p.coarseRefs = make([]coarseRef, len(refs))
	next := slices.Clone(p.coarseStart[:len(p.coarse)])
	for i, w := range writers {
		p.coarseRefs[next[w]] = refs[i]
		next[w]++
	}
	scr.iface, scr.refs, scr.writers = faces, refs, writers
	putPlanScratch(scr)
	return p
}

// FluxRegister carries the coarse–fine interface bookkeeping for one
// fine level over one coarse time step: the level's interface plan and
// one accumulator slot per table row.
type FluxRegister struct {
	h         *Hierarchy
	fineLevel int
	plan      *interfacePlan
	// coarse[j] is face j's coarse flux (valid once seen[j]); fineSum[j]
	// accumulates (1/r³)·fine fluxes over the substeps.
	coarse, fineSum []float64
	seen            []bool
}

// fluxRegPool recycles released registers with their accumulators.
var fluxRegPool = sync.Pool{New: func() any { return new(FluxRegister) }}

// NewFluxRegister returns a zeroed register over the given fine
// level's coarse–fine interface: every coarse face with a fine-covered
// cell on exactly one side (both cells inside the domain). The
// interface itself comes from the plan cache, so on an unchanged
// structure this discovers nothing. The hierarchy's structure must not
// change while the register is in use.
func NewFluxRegister(h *Hierarchy, fineLevel int) *FluxRegister {
	if fineLevel <= 0 || fineLevel > h.MaxLevel {
		panic("amr.NewFluxRegister: bad fine level")
	}
	fr := fluxRegPool.Get().(*FluxRegister)
	fr.h, fr.fineLevel, fr.plan = h, fineLevel, h.interfacePlan(fineLevel)
	n := len(fr.plan.faces)
	fr.coarse = zeroed(fr.coarse, n)
	fr.fineSum = zeroed(fr.fineSum, n)
	fr.seen = zeroed(fr.seen, n)
	return fr
}

// zeroed returns s resized to n zero elements, reusing its storage
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Release hands the register's storage to the next NewFluxRegister.
// The caller must not touch fr afterwards.
func (fr *FluxRegister) Release() {
	fr.h, fr.plan = nil, nil
	fluxRegPool.Put(fr)
}

// plannedPos returns g's place in the level list a plan was built for,
// after checking that g and its fluxes are what the plan's offsets
// were computed from.
func plannedPos(op string, g *Grid, level int, planned []*Grid, fl *solver.Fluxes) int {
	if g.Level != level {
		panic("amr.FluxRegister." + op + ": wrong level")
	}
	if g.pos >= len(planned) || planned[g.pos] != g {
		panic("amr.FluxRegister." + op + ": hierarchy structure changed under a live register")
	}
	if fl.Box != g.Box {
		panic("amr.FluxRegister." + op + ": fluxes do not belong to the grid")
	}
	return g.pos
}

// AddCoarse captures, from one coarse grid's step, the coarse fluxes
// of the interface faces the grid is the writer of. Distinct grids
// write distinct faces, so coarse grids may feed concurrently.
func (fr *FluxRegister) AddCoarse(g *Grid, fl *solver.Fluxes) {
	p := fr.plan
	k := plannedPos("AddCoarse", g, fr.fineLevel-1, p.coarse, fl)
	faces := [geom.Dims][]float64{fl.Faces(0), fl.Faces(1), fl.Faces(2)}
	for _, ref := range p.coarseRefs[p.coarseStart[k]:p.coarseStart[k+1]] {
		fr.coarse[ref.face] = faces[p.faces[ref.face].D][ref.off]
		fr.seen[ref.face] = true
	}
}

// AddFine accumulates one fine grid's substep fluxes onto the
// interface faces on its boundary planes, pre-scaled by 1/r³ (r²
// faces per coarse face × r substeps). Distinct grids write distinct
// faces, so fine grids may feed concurrently.
func (fr *FluxRegister) AddFine(g *Grid, fl *solver.Fluxes) {
	p := fr.plan
	k := plannedPos("AddFine", g, fr.fineLevel, p.fine, fl)
	r := fr.h.RefFactor
	inv := 1.0 / float64(r*r*r)
	// The two transverse strides of Faces(d)'s x-fastest storage, in
	// the order the r×r fine faces are summed.
	var faces [geom.Dims][]float64
	var strideA, strideB [geom.Dims]int
	for d := 0; d < geom.Dims; d++ {
		faces[d] = fl.Faces(d)
		s := fl.FaceBox(d).Shape()
		switch d {
		case 0:
			strideA[d], strideB[d] = s[0], s[0]*s[1]
		case 1:
			strideA[d], strideB[d] = 1, s[0]*s[1]
		default:
			strideA[d], strideB[d] = 1, s[0]
		}
	}
	for j := p.fineStart[k]; j < p.fineStart[k+1]; j++ {
		f := &p.faces[j]
		data, sa, sb := faces[f.D], strideA[f.D], strideB[f.D]
		sum := fr.fineSum[j]
		// float64(…) rounds each product before the add, here and in
		// Apply: the Go spec lets a compiler fuse x*y + z into one
		// multiply-add, whose single rounding differs in the last bit
		// (arm64 fuses, amd64 never does), and a run must compute the
		// same bits on every GOARCH.
		for a := 0; a < r; a++ {
			row := int(f.fineOff) + a*sa
			for b := 0; b < r; b++ {
				sum += float64(inv * data[row+b*sb])
			}
		}
		fr.fineSum[j] = sum
	}
}

// Apply writes the corrections into the coarse patches, in table
// order: a coarse cell at a concave corner of the fine region owns two
// or three faces, and a fixed order makes its sum repeat bit for bit.
func (fr *FluxRegister) Apply() {
	if !fr.h.WithData {
		return
	}
	var target *Grid
	var q []float64
	for j := range fr.plan.faces {
		f := &fr.plan.faces[j]
		if !fr.seen[j] || f.target == nil {
			continue
		}
		if f.target != target {
			target = f.target
			q = target.Patch.Field(solver.FieldQ)
		}
		q[f.off] += float64(float64(f.Sign) * (fr.fineSum[j] - fr.coarse[j]))
	}
}
