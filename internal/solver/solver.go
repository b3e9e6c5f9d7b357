// Package solver provides the numerical kernels that advance SAMR
// patches: a first-order upwind advection scheme and a Godunov Burgers
// scheme for hyperbolic problems (the ShockPool3D dataset solves "a
// purely hyperbolic equation"), a Gauss–Seidel relaxation for
// elliptic (Poisson) problems and a leapfrog particle integrator (the
// AMR64 dataset uses "hyperbolic (fluid) and elliptic (Poisson's)
// equations as well as a set of ordinary differential equations for
// the particle trajectories").
//
// Each kernel reports a FlopsPerCell cost; the distributed execution
// model uses it to convert cells advanced into virtual compute time,
// while the kernels themselves do the real floating-point work so the
// workload (and the in-process parallelism exercising it) is genuine.
package solver

import (
	"fmt"
	"math"

	"samrdlb/internal/grid"
)

// Kernel advances one patch by one time step.
type Kernel interface {
	// Name identifies the kernel in traces and reports.
	Name() string
	// Fields lists the field names the kernel requires on a patch.
	Fields() []string
	// FlopsPerCell is the nominal floating-point cost of advancing one
	// cell, used by the virtual-time compute model.
	FlopsPerCell() float64
	// Step advances the patch interior by dt. dx is the cell width on
	// the patch's level. Ghost cells must have been filled beforehand.
	Step(p *grid.Patch, dt, dx float64)
}

// MaxStableDt returns the largest stable time step for a kernel with
// the given maximum signal speed on cells of width dx, using the
// standard CFL condition with the given safety factor.
func MaxStableDt(maxSpeed, dx, cfl float64) float64 {
	if maxSpeed <= 0 {
		return math.Inf(1)
	}
	return cfl * dx / maxSpeed
}

// Shared field lists, returned by the kernels' Fields methods and
// passed to checkFieldList from the hot Step paths. Package-level so
// neither the method call nor the check allocates; callers must not
// mutate them.
var (
	qFields       = []string{FieldQ}
	poissonFields = []string{FieldPhi, FieldRho}
)

// checkFieldList panics when p lacks a field the kernel needs. Per-step
// kernel code calls it with a shared field list and a plain name, not a
// Kernel interface value, so the validation costs zero allocations.
func checkFieldList(p *grid.Patch, kernelName string, fields []string) {
	for _, f := range fields {
		if !p.HasField(f) {
			panic(fmt.Sprintf("solver: patch missing field %q required by %s", f, kernelName))
		}
	}
}
