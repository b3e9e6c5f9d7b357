package solver

import "samrdlb/internal/grid"

// Field names used by the elliptic kernel.
const (
	// FieldPhi is the potential solved for.
	FieldPhi = "phi"
	// FieldRho is the source term.
	FieldRho = "rho"
)

// GaussSeidel is a red-black Gauss–Seidel relaxation kernel for
// the Poisson equation ∇²φ = ρ. The AMR64 dataset couples an elliptic
// solve (self-gravity) to the fluid step; within the distributed
// execution model the kernel contributes its per-cell cost times the
// sweep count.
type GaussSeidel struct {
	// Sweeps is the number of red-black sweeps per Step (default 4).
	Sweeps int
}

// Name implements Kernel.
func (gs GaussSeidel) Name() string { return "gauss-seidel-poisson" }

// Fields implements Kernel.
func (gs GaussSeidel) Fields() []string { return poissonFields }

// FlopsPerCell implements Kernel: ~10 flops per relaxation update per
// sweep.
func (gs GaussSeidel) FlopsPerCell() float64 { return 10 * float64(gs.sweeps()) }

func (gs GaussSeidel) sweeps() int {
	if gs.Sweeps <= 0 {
		return 4
	}
	return gs.Sweeps
}

// Step implements Kernel: it relaxes φ toward the solution of
// ∇²φ = ρ with Dirichlet data taken from the current ghost cells.
// dt is ignored (the elliptic problem is quasi-static within a step).
// The red-black sweeps are explicit parity-strided row loops (no
// per-cell closure, no skipped-cell work), visiting cells in exactly
// the order the closure-based original did.
func (gs GaussSeidel) Step(p *grid.Patch, _ float64, dx float64) {
	checkFieldList(p, gs.Name(), poissonFields)
	if p.NGhost < 1 {
		panic("solver.GaussSeidel: needs at least one ghost cell")
	}
	phi := p.Field(FieldPhi)
	rho := p.Field(FieldRho)
	rw := grid.RowsOf(p.Grown(), p.Box)
	stride := [3]int{1, rw.SY, rw.SZ}
	h2 := dx * dx
	b := p.Box
	for sweep := 0; sweep < gs.sweeps(); sweep++ {
		for color := 0; color < 2; color++ {
			zo := rw.Base
			for z := b.Lo[2]; z <= b.Hi[2]; z++ {
				row := zo
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					// Parity start: the row's first cell of this colour.
					x0 := 0
					if (b.Lo[0]+y+z)&1 != color {
						x0 = 1
					}
					for off := row + x0; off < row+rw.N; off += 2 {
						nb := phi[off-stride[0]] + phi[off+stride[0]] +
							phi[off-stride[1]] + phi[off+stride[1]] +
							phi[off-stride[2]] + phi[off+stride[2]]
						target := (nb - h2*rho[off]) / 6.0
						// Not `= target`: the increment form rounds
						// differently and is the pinned one.
						phi[off] += target - phi[off]
					}
					row += rw.SY
				}
				zo += rw.SZ
			}
		}
	}
}
