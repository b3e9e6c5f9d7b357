package workload

import (
	"math"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
)

// SedovBlast is a third dataset beyond the paper's two: a point
// explosion whose shock front expands as the Sedov–Taylor similarity
// solution R(t) ∝ t^(2/5). Unlike ShockPool3D's travelling plane
// (which loads one group, then the other) the blast front loads both
// groups symmetrically while its *area* — and hence the refined cell
// count — grows quadratically, stressing the DLB's reaction to total
// load growth rather than load motion. The hyperbolic field is
// advanced with the nonlinear Godunov Burgers kernel, which really
// does steepen the initial pulse into a front.
type SedovBlast struct {
	N0, Ref int
	// Center is the explosion origin (physical units).
	Center [3]float64
	// R0 and Rate set the front radius R(t) = R0 + Rate·t^(2/5).
	R0, Rate float64
	// Width is the refined shell half-thickness at level 0; finer
	// levels refine half the thickness each.
	Width float64
	// Amplitude is the initial pulse height.
	Amplitude float64
}

// NewSedovBlast returns the standard configuration on an n0^3 domain.
func NewSedovBlast(n0, ref int) *SedovBlast {
	return &SedovBlast{
		N0: n0, Ref: ref,
		Center:    [3]float64{0.5, 0.5, 0.5},
		R0:        0.06,
		Rate:      0.45,
		Width:     0.07,
		Amplitude: 0.8,
	}
}

// Name implements Driver.
func (s *SedovBlast) Name() string { return "SedovBlast" }

// Fields implements Driver.
func (s *SedovBlast) Fields() []string { return []string{solver.FieldQ} }

// Kernels implements Driver.
func (s *SedovBlast) Kernels() []solver.Kernel {
	return []solver.Kernel{solver.Burgers3D{}}
}

// Radius returns the front radius at time t.
func (s *SedovBlast) Radius(t float64) float64 {
	if t < 0 {
		t = 0
	}
	return s.R0 + s.Rate*math.Pow(t, 0.4)
}

// InitialCondition implements Driver: a Gaussian pulse at the centre.
func (s *SedovBlast) InitialCondition(p *grid.Patch, dx float64) {
	level := p.Level
	w2 := s.R0 * s.R0
	p.FillFunc(solver.FieldQ, func(i geom.Index) float64 {
		x := cellCenter(i, level, s.N0, s.Ref)
		return s.Amplitude * math.Exp(-dist2c(x, s.Center)/(2*w2))
	})
}

// Flag implements Driver: a spherical shell around the current front.
func (s *SedovBlast) Flag(level int, t float64, f *cluster.FlagField) {
	r := s.Radius(t)
	w := s.Width / math.Pow(2, float64(level))
	dx := 1.0 / (float64(s.N0) * math.Pow(float64(s.Ref), float64(level)))
	f.SetRows(f.Box, func(row cluster.Row, x0, y, z int) {
		vy, vz := center(y, dx)-s.Center[1], center(z, dx)-s.Center[2]
		vy2, vz2 := float64(vy*vy), float64(vz*vz)
		for k := range row.Len() {
			vx := center(x0+k, dx) - s.Center[0]
			if d := math.Sqrt(float64(vx*vx)+vy2+vz2) - r; math.Abs(d) < w {
				row.Set(k)
			}
		}
	})
}

// Dt0 implements Driver: CFL against the pulse amplitude.
func (s *SedovBlast) Dt0() float64 {
	dx := 1.0 / float64(s.N0)
	return solver.MaxStableDt((solver.Burgers3D{}).MaxSpeed(s.Amplitude), dx, 0.4)
}

// DomainN implements Driver.
func (s *SedovBlast) DomainN() int { return s.N0 }

// RefFactor implements Driver.
func (s *SedovBlast) RefFactor() int { return s.Ref }

// Particles implements Driver.
func (s *SedovBlast) Particles() *solver.ParticleSet { return nil }

// dist2c is the plain (non-periodic) squared distance, summed like
// wrapDist2: x term first, each product rounded before it is added.
func dist2c(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		v := a[d] - b[d]
		s += float64(v * v)
	}
	return s
}
