package solver

import "samrdlb/internal/grid"

// Burgers3D advances the inviscid Burgers equation
// q_t + Σ_d ∂_d (q²/2) = 0 with the Godunov (exact Riemann) flux,
// dimension by dimension. Unlike linear advection it steepens smooth
// profiles into genuine shocks — the "purely hyperbolic equation"
// behaviour ShockPool3D models, with real nonlinear dynamics.
type Burgers3D struct{}

// Name implements Kernel.
func (Burgers3D) Name() string { return "burgers3d-godunov" }

// Fields implements Kernel.
func (Burgers3D) Fields() []string { return qFields }

// FlopsPerCell implements Kernel: 3 dims × (2 flux evaluations with
// min/max logic ≈ 8 flops) + update.
func (Burgers3D) FlopsPerCell() float64 { return 30 }

// MaxSpeed returns the largest signal speed for the given field
// magnitude (|q| for Burgers).
func (Burgers3D) MaxSpeed(maxAbsQ float64) float64 { return 3 * maxAbsQ }

// godunovFlux returns the Godunov flux for f(q)=q²/2 between left and
// right states: the exact solution of the scalar Riemann problem.
func godunovFlux(ql, qr float64) float64 {
	// Standard form: max over f of max(ql,0) and min(qr,0).
	a := ql
	if a < 0 {
		a = 0
	}
	b := qr
	if b > 0 {
		b = 0
	}
	fa := a * a / 2
	fb := b * b / 2
	if fa > fb {
		return fa
	}
	return fb
}

// Step implements Kernel. Requires NGhost >= 1. Callers that do not
// need the fluxes go through here so the Fluxes object returns to the
// reuse pool immediately.
func (k Burgers3D) Step(p *grid.Patch, dt, dx float64) {
	k.StepFluxes(p, dt, dx).Release()
}

// StepFluxes implements FluxedKernel. Explicit row loops over pooled
// fluxes, walked by stride, pinned bit for bit in kernels_ref_test.go.
func (k Burgers3D) StepFluxes(p *grid.Patch, dt, dx float64) *Fluxes {
	checkFieldList(p, k.Name(), qFields)
	if p.NGhost < 1 {
		panic("solver.Burgers3D: needs at least one ghost cell")
	}
	q := p.Field(FieldQ)
	g := p.Grown()
	lam := dt / dx
	fl := NewFluxes(p.Box)
	for d := 0; d < 3; d++ {
		rw := grid.RowsOf(g, fl.faceBox[d])
		lower := [3]int{1, rw.SY, rw.SZ}[d]
		f := fl.f[d]
		fo := 0
		zo := rw.Base
		for z := 0; z < rw.NZ; z++ {
			off := zo
			for y := 0; y < rw.NY; y++ {
				for o := off; o < off+rw.N; o++ {
					f[fo] = lam * godunovFlux(q[o-lower], q[o])
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
