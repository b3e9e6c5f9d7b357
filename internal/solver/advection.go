package solver

import (
	"math"

	"samrdlb/internal/grid"
)

// FieldQ is the advected/conserved scalar field name used by the
// hyperbolic kernels.
const FieldQ = "q"

// Advection3D is a first-order upwind finite-volume scheme for the
// linear advection equation q_t + v·∇q = 0. It is the cheap, robust
// hyperbolic kernel used by the ShockPool3D workload.
type Advection3D struct {
	// Vel is the constant advection velocity.
	Vel [3]float64
}

// Name implements Kernel.
func (a Advection3D) Name() string { return "advection3d-upwind" }

// Fields implements Kernel.
func (a Advection3D) Fields() []string { return qFields }

// FlopsPerCell implements Kernel: 3 dims × (1 upwind select + 2 mul +
// 2 add) ≈ 15, plus the update ≈ 18 flops.
func (a Advection3D) FlopsPerCell() float64 { return 18 }

// MaxSpeed returns the maximum signal speed, for CFL computation.
func (a Advection3D) MaxSpeed() float64 {
	return math.Abs(a.Vel[0]) + math.Abs(a.Vel[1]) + math.Abs(a.Vel[2])
}

// Step implements Kernel. Requires NGhost >= 1. The sweep is written
// as explicit row loops that walk the interior by stride (no per-step
// allocation, no per-cell closure, no per-row index arithmetic) into
// borrowed scratch, since each update reads its neighbours' pre-step
// values; pinned bit for bit against the closure-based reference in
// kernels_ref_test.go.
func (a Advection3D) Step(p *grid.Patch, dt, dx float64) {
	checkFieldList(p, a.Name(), qFields)
	if p.NGhost < 1 {
		panic("solver.Advection3D: needs at least one ghost cell")
	}
	q := p.Field(FieldQ)
	rw := grid.RowsOf(p.Grown(), p.Box)
	stride := [3]int{1, rw.SY, rw.SZ}
	lam := dt / dx
	sp := getScratch(len(q))
	out := *sp
	zo := rw.Base
	for z := 0; z < rw.NZ; z++ {
		off := zo
		for y := 0; y < rw.NY; y++ {
			for o := off; o < off+rw.N; o++ {
				du := 0.0
				for d := 0; d < 3; d++ {
					v := a.Vel[d]
					if v >= 0 {
						du -= v * lam * (q[o] - q[o-stride[d]])
					} else {
						du -= v * lam * (q[o+stride[d]] - q[o])
					}
				}
				out[o] = q[o] + du
			}
			off += rw.SY
		}
		zo += rw.SZ
	}
	zo = rw.Base
	for z := 0; z < rw.NZ; z++ {
		off := zo
		for y := 0; y < rw.NY; y++ {
			copy(q[off:off+rw.N], out[off:off+rw.N])
			off += rw.SY
		}
		zo += rw.SZ
	}
	putScratch(sp)
}
