package solver

import (
	"sync"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// Face-flux machinery for conservative coarse–fine coupling
// (refluxing). A finite-volume step can be written as
//
//	q_i ← q_i − Σ_d (F_d(i+e_d) − F_d(i))
//
// where F_d(i) is the (nondimensionalised, λ = dt/dx scaled) flux
// through the face separating cells i−e_d and i. Refluxing needs the
// kernels to expose F so fine-level fluxes can replace the coarse
// flux at coarse–fine interfaces (see amr.FluxRegister).

// Fluxes holds face-centred fluxes for one patch step. For dimension
// d, the face indexed by cell i is the lower face of cell i; faces
// run over the interior box extended by one plane on the high side.
type Fluxes struct {
	// Box is the cell-interior box the fluxes belong to.
	Box geom.Box
	// faceBox[d] is Box grown by one plane on the high side of d.
	faceBox [3]geom.Box
	f       [3][]float64
}

// fluxPool recycles Fluxes across steps: every fluxed kernel step on
// every grid needs one, and the flux registers copy the values out,
// so the object is dead as soon as the engine has fed the registers.
var fluxPool = sync.Pool{New: func() any { return new(Fluxes) }}

// NewFluxes returns zeroed fluxes over the interior box, reusing a
// released Fluxes when one is available.
func NewFluxes(box geom.Box) *Fluxes {
	fl := fluxPool.Get().(*Fluxes)
	fl.Box = box
	for d := 0; d < 3; d++ {
		fl.faceBox[d] = box.GrowDim(d, 0, 1)
		n := int(fl.faceBox[d].NumCells())
		if cap(fl.f[d]) < n {
			fl.f[d] = make([]float64, n)
		} else {
			fl.f[d] = fl.f[d][:n]
			clear(fl.f[d]) // keep the documented zeroed contract on reuse
		}
	}
	return fl
}

// Release returns the fluxes to the reuse pool. The caller must not
// touch fl afterwards; values read out of it (e.g. by the flux
// registers, which copy) stay valid.
func (fl *Fluxes) Release() { fluxPool.Put(fl) }

// At returns the flux through face (d, i) — the lower face of cell i
// in dimension d. The face must exist for this box.
func (fl *Fluxes) At(d int, i geom.Index) float64 {
	return fl.f[d][fl.faceBox[d].Offset(i)]
}

// Set stores a face flux.
func (fl *Fluxes) Set(d int, i geom.Index, v float64) {
	fl.f[d][fl.faceBox[d].Offset(i)] = v
}

// FaceBox returns the face index box for dimension d.
func (fl *Fluxes) FaceBox(d int) geom.Box { return fl.faceBox[d] }

// Faces returns dimension d's fluxes in FaceBox(d).Offset order, for
// planned readers that precomputed their offsets from the box. The
// slice aliases fl and dies with Release.
func (fl *Fluxes) Faces(d int) []float64 { return fl.f[d] }

// FluxedKernel is a kernel that can expose its face fluxes.
type FluxedKernel interface {
	Kernel
	// StepFluxes advances the patch exactly as Step does and returns
	// the face fluxes it applied (λ-scaled: the update is the flux
	// difference directly).
	StepFluxes(p *grid.Patch, dt, dx float64) *Fluxes
}

// StepFluxes implements FluxedKernel for the upwind advection scheme.
func (a Advection3D) StepFluxes(p *grid.Patch, dt, dx float64) *Fluxes {
	checkFieldList(p, a.Name(), qFields)
	if p.NGhost < 1 {
		panic("solver.Advection3D: needs at least one ghost cell")
	}
	q := p.Field(FieldQ)
	g := p.Grown()
	lam := dt / dx
	fl := NewFluxes(p.Box)
	for d := 0; d < 3; d++ {
		v := a.Vel[d]
		rw := grid.RowsOf(g, fl.faceBox[d])
		lower := [3]int{1, rw.SY, rw.SZ}[d]
		f := fl.f[d]
		fo := 0
		zo := rw.Base
		for z := 0; z < rw.NZ; z++ {
			off := zo
			for y := 0; y < rw.NY; y++ {
				for o := off; o < off+rw.N; o++ {
					var qup float64
					if v >= 0 {
						qup = q[o-lower] // face's lower cell
					} else {
						qup = q[o]
					}
					f[fo] = v * lam * qup
					fo++
				}
				off += rw.SY
			}
			zo += rw.SZ
		}
	}
	applyFluxes(p, q, fl)
	return fl
}

// applyFluxes performs q_i -= F(i+e_d) - F(i) over the interior, in
// place: cell i's update reads only q_i and fluxes computed before it
// starts, so no cell reads another's post-step value.
func applyFluxes(p *grid.Patch, q []float64, fl *Fluxes) {
	rw := grid.RowsOf(p.Grown(), p.Box)
	var fr [3]grid.Rows
	for d := range fr {
		fr[d] = grid.RowsOf(fl.faceBox[d], p.Box)
	}
	// The stride along d inside faceBox[d]: cell i's upper face.
	fStride := [3]int{1, fr[1].SY, fr[2].SZ}
	zo := rw.Base
	fz := [3]int{fr[0].Base, fr[1].Base, fr[2].Base}
	for z := 0; z < rw.NZ; z++ {
		off, fy := zo, fz
		for y := 0; y < rw.NY; y++ {
			fOff := fy
			for o := off; o < off+rw.N; o++ {
				var du float64
				for d := 0; d < 3; d++ {
					du -= fl.f[d][fOff[d]+fStride[d]] - fl.f[d][fOff[d]]
					fOff[d]++
				}
				q[o] = q[o] + du
			}
			off += rw.SY
			for d := range fy {
				fy[d] += fr[d].SY
			}
		}
		zo += rw.SZ
		for d := range fz {
			fz[d] += fr[d].SZ
		}
	}
}
