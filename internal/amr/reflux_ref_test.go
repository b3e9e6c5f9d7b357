package amr

import (
	"samrdlb/internal/geom"
	"samrdlb/internal/solver"
)

// The map-walking flux register the planned one replaced, kept as the
// reference the property tests compare against. It discovers the
// interface with a per-cell BoxList.Contains, every AddCoarse/AddFine
// tests every face of the level against the calling grid, and Apply
// searches every coarse grid per face. Its one departure from the
// original is that apply takes the face order from the caller: the
// original ranged over the map, so a coarse cell owning two or three
// faces received its corrections in a different order on every run.

// faceKey identifies a coarse face: the lower face of coarse cell I
// in dimension D.
type faceKey struct {
	D int
	I geom.Index
}

// faceEntry accumulates the two flux estimates for one interface face.
type faceEntry struct {
	// Cell is the uncovered coarse cell the correction applies to.
	Cell geom.Index
	// Sign is +1 when the face is Cell's lower face, −1 for upper.
	Sign float64
	// Coarse is the coarse flux captured during the coarse step.
	Coarse float64
	// FineSum accumulates (1/r³)·fine fluxes over the substeps.
	FineSum float64
	// seenCoarse marks that the coarse flux was recorded.
	seenCoarse bool
}

type refFluxRegister struct {
	h         *Hierarchy
	fineLevel int
	faces     map[faceKey]*faceEntry
}

// newRefFluxRegister identifies the coarse–fine interface of the given
// fine level: every coarse face with a fine-covered cell on exactly
// one side (both cells inside the domain).
func newRefFluxRegister(h *Hierarchy, fineLevel int) *refFluxRegister {
	fr := &refFluxRegister{h: h, fineLevel: fineLevel, faces: make(map[faceKey]*faceEntry)}
	covered := h.Boxes(fineLevel).Coarsen(h.RefFactor)
	dom := h.DomainAt(fineLevel - 1)
	for _, cb := range covered {
		for d := 0; d < geom.Dims; d++ {
			// Low side of the covered box: faces at plane cb.Lo[d];
			// the uncovered neighbour is at i − e_d.
			lowFaces := cb
			lowFaces.Hi[d] = cb.Lo[d]
			lowFaces.ForEach(func(i geom.Index) {
				out := i
				out[d]--
				fr.addFace(d, i, out, covered, dom)
			})
			// High side: faces at plane cb.Hi[d]+1 (lower faces of the
			// cells just above); uncovered neighbour is that cell.
			highFaces := cb
			highFaces.Lo[d] = cb.Hi[d] + 1
			highFaces.Hi[d] = cb.Hi[d] + 1
			highFaces.ForEach(func(i geom.Index) {
				fr.addFace(d, i, i, covered, dom)
			})
		}
	}
	return fr
}

// addFace registers face (d,i) correcting coarse cell `cell` if the
// cell is inside the domain and not itself covered by the fine level.
func (fr *refFluxRegister) addFace(d int, i, cell geom.Index, covered geom.BoxList, dom geom.Box) {
	if !dom.Contains(cell) || covered.Contains(cell) {
		return
	}
	sign := -1.0 // face is cell's upper face
	if cell == i {
		sign = +1.0 // face is cell's lower face
	}
	fr.faces[faceKey{D: d, I: i}] = &faceEntry{Cell: cell, Sign: sign}
}

// addCoarse captures the coarse fluxes of one coarse grid's step at
// the interface faces that lie within the grid.
func (fr *refFluxRegister) addCoarse(g *Grid, fl *solver.Fluxes) {
	for key, e := range fr.faces {
		if !fl.FaceBox(key.D).Contains(key.I) {
			continue
		}
		// A face on a coarse-grid boundary exists in two grids'
		// flux sets (as upper face of one, lower face of the next);
		// both compute the same upwind flux, so first write wins.
		if e.seenCoarse {
			continue
		}
		// The face must be adjacent to this grid's interior.
		lo := key.I
		lo[key.D]--
		if !g.Box.Contains(key.I) && !g.Box.Contains(lo) {
			continue
		}
		e.Coarse = fl.At(key.D, key.I)
		e.seenCoarse = true
	}
}

// addFine accumulates one fine grid's substep fluxes onto the
// matching coarse faces, pre-scaled by 1/r³ (r² faces per coarse
// face × r substeps).
func (fr *refFluxRegister) addFine(g *Grid, fl *solver.Fluxes) {
	r := fr.h.RefFactor
	inv := 1.0 / float64(r*r*r)
	for key, e := range fr.faces {
		d := key.D
		// Fine faces on this coarse face's plane.
		plane := key.I[d] * r
		fb := fl.FaceBox(d)
		if plane < fb.Lo[d] || plane > fb.Hi[d] {
			continue
		}
		var fineFace geom.Index
		base := key.I.Scale(r)
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				fineFace = base
				fineFace[d] = plane
				switch d {
				case 0:
					fineFace[1] += a
					fineFace[2] += b
				case 1:
					fineFace[0] += a
					fineFace[2] += b
				default:
					fineFace[0] += a
					fineFace[1] += b
				}
				if fb.Contains(fineFace) {
					// Only faces on the fine grid's own boundary
					// planes count; interior fine faces belong to
					// fine–fine neighbours, not the interface.
					if fineFace[d] == g.Box.Lo[d] || fineFace[d] == g.Box.Hi[d]+1 {
						e.FineSum += inv * fl.At(d, fineFace)
					}
				}
			}
		}
	}
}

// apply writes the corrections into the coarse patches, face by face
// in the given order.
func (fr *refFluxRegister) apply(order []faceKey) {
	coarse := fr.h.Grids(fr.fineLevel - 1)
	for _, key := range order {
		e := fr.faces[key]
		if !e.seenCoarse {
			continue
		}
		corr := e.Sign * (e.FineSum - e.Coarse)
		for _, g := range coarse {
			if g.Box.Contains(e.Cell) {
				q := g.Patch.Field(solver.FieldQ)
				q[g.Patch.Grown().Offset(e.Cell)] += corr
				break
			}
		}
	}
}

// faceMap views the planned register's face table and accumulators in
// the reference's shape, for face-by-face comparison.
func (fr *FluxRegister) faceMap() map[faceKey]*faceEntry {
	m := make(map[faceKey]*faceEntry, len(fr.plan.faces))
	for j := range fr.plan.faces {
		f := &fr.plan.faces[j]
		m[faceKey{D: f.D, I: f.I}] = &faceEntry{
			Cell: f.Cell, Sign: f.Sign,
			Coarse: fr.coarse[j], FineSum: fr.fineSum[j], seenCoarse: fr.seen[j],
		}
	}
	return m
}
