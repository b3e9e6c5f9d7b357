// Package workload provides the application drivers that make the
// SAMR hierarchy adapt the way the paper's two datasets do:
//
//   - ShockPool3D "solves a purely hyperbolic equation ... simulates
//     the movement of a shock wave (a plane) that is slightly tilted
//     with respect to the edges of the computational domain, so more
//     and more grids are created along the moving shock wave plane."
//
//   - AMR64 "uses hyperbolic (fluid) and elliptic (Poisson's)
//     equations as well as a set of ordinary differential equations
//     for the particle trajectories ... designed to simulate the
//     formation of a cluster of galaxies, so many grids are randomly
//     distributed across the whole computational domain."
//
// A Driver supplies the physics kernels, the initial condition, the
// refinement flags as a function of simulated time, and (for AMR64)
// the particle population whose spatial distribution skews the load.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
)

// Driver describes one SAMR application.
type Driver interface {
	// Name identifies the dataset.
	Name() string
	// Fields are the patch fields the application needs.
	Fields() []string
	// Kernels are applied in order on every patch each time step.
	Kernels() []solver.Kernel
	// InitialCondition fills a freshly created patch.
	InitialCondition(p *grid.Patch, dx float64)
	// Flag marks the level-l cells (level index space) that need
	// refinement at simulated time t.
	Flag(level int, t float64, f *cluster.FlagField)
	// Dt0 is the physical time step at level 0.
	Dt0() float64
	// DomainN is the level-0 domain size in cells per side.
	DomainN() int
	// RefFactor is the refinement factor between levels.
	RefFactor() int
	// Particles returns the particle population, or nil.
	Particles() *solver.ParticleSet
}

// datasets is the one name table: the CLI, the experiment harness and
// the scenario harness all resolve dataset names through it. Every
// entry builds on an n³ level-0 domain with refinement factor 2; seed
// fixes the seeded datasets' randomness.
var datasets = []struct {
	name string
	new  func(n int, seed int64) Driver
}{
	{"ShockPool3D", func(n int, _ int64) Driver { return NewShockPool3D(n, 2) }},
	{"AMR64", func(n int, seed int64) Driver { return NewAMR64(n, 2, seed) }},
	{"SedovBlast", func(n int, _ int64) Driver { return NewSedovBlast(n, 2) }},
	{"blob", func(n int, _ int64) Driver { return NewStaticBlob(n, 2) }},
	{"uniform", func(n int, _ int64) Driver { return &Uniform{N0: n, Ref: 2} }},
}

// Names returns the dataset names ByName resolves, in table order.
func Names() []string {
	out := make([]string, len(datasets))
	for i, d := range datasets {
		out[i] = d.name
	}
	return out
}

// ByName builds a fresh driver for a dataset name (drivers carry
// mutable state such as AMR64's particles, so every run gets its own).
func ByName(name string, n int, seed int64) (Driver, error) {
	for _, d := range datasets {
		if d.name == name {
			return d.new(n, seed), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown dataset %q (%s)", name, strings.Join(Names(), " | "))
}

// FlopsPerCell sums the per-cell cost of the driver's kernels — the
// unit of workload the DLB schemes balance.
func FlopsPerCell(d Driver) float64 {
	var sum float64
	for _, k := range d.Kernels() {
		sum += k.FlopsPerCell()
	}
	return sum
}

// cellCenter returns the physical coordinates (domain [0,1)^3) of the
// centre of cell i on the given level, for a level-0 domain of n0
// cells per side refined by factor ref.
func cellCenter(i geom.Index, level, n0, ref int) [3]float64 {
	dx := 1.0 / (float64(n0) * math.Pow(float64(ref), float64(level)))
	return [3]float64{center(i[0], dx), center(i[1], dx), center(i[2], dx)}
}

// center is the physical coordinate of the centre of cell i along one
// axis at mesh spacing dx.
func center(i int, dx float64) float64 { return (float64(i) + 0.5) * dx }

// ShockPool3D drives refinement along a slightly tilted plane that
// sweeps through the domain.
type ShockPool3D struct {
	// N0 is the level-0 domain size (cells per side); Ref the
	// refinement factor.
	N0, Ref int
	// Normal is the (not necessarily unit) shock normal; the default
	// is slightly tilted off the x axis, per the paper.
	Normal [3]float64
	// Speed is the plane's propagation speed along its normal.
	Speed float64
	// Width is the half-thickness of the refined zone at level 0 in
	// physical units; each finer level refines half the thickness.
	Width float64
	// Start is the plane's offset at t=0.
	Start float64
}

// NewShockPool3D returns the standard configuration on an n0^3 domain.
func NewShockPool3D(n0, ref int) *ShockPool3D {
	return &ShockPool3D{
		N0: n0, Ref: ref,
		Normal: [3]float64{1, 0.15, 0.1}, // slightly tilted plane
		Speed:  0.25,
		Width:  0.08,
		Start:  0.15,
	}
}

// Name implements Driver.
func (s *ShockPool3D) Name() string { return "ShockPool3D" }

// Fields implements Driver.
func (s *ShockPool3D) Fields() []string { return []string{solver.FieldQ} }

// Kernels implements Driver: purely hyperbolic.
func (s *ShockPool3D) Kernels() []solver.Kernel {
	return []solver.Kernel{solver.Advection3D{Vel: s.velocity()}}
}

func (s *ShockPool3D) velocity() [3]float64 {
	n := s.unitNormal()
	return [3]float64{s.Speed * n[0], s.Speed * n[1], s.Speed * n[2]}
}

func (s *ShockPool3D) unitNormal() [3]float64 {
	m := math.Sqrt(s.Normal[0]*s.Normal[0] + s.Normal[1]*s.Normal[1] + s.Normal[2]*s.Normal[2])
	return [3]float64{s.Normal[0] / m, s.Normal[1] / m, s.Normal[2] / m}
}

// planePos returns the plane offset at time t.
func (s *ShockPool3D) planePos(t float64) float64 { return s.Start + s.Speed*t }

// distance returns the signed distance of a physical point from the
// shock plane at time t.
func (s *ShockPool3D) distance(x [3]float64, t float64) float64 {
	n := s.unitNormal()
	return x[0]*n[0] + x[1]*n[1] + x[2]*n[2] - s.planePos(t)
}

// InitialCondition implements Driver: q = 1 behind the shock, 0 ahead.
func (s *ShockPool3D) InitialCondition(p *grid.Patch, dx float64) {
	level := p.Level
	p.FillFunc(solver.FieldQ, func(i geom.Index) float64 {
		if s.distance(cellCenter(i, level, s.N0, s.Ref), 0) < 0 {
			return 1
		}
		return 0
	})
}

// Flag implements Driver: cells within the level's capture width of
// the moving plane are refined. The zone thins with level so each
// finer level tracks the sharp front, and the tilt means the flagged
// set is not axis-aligned — exactly the behaviour that makes the
// workload migrate across the domain (and across groups) over time.
func (s *ShockPool3D) Flag(level int, t float64, f *cluster.FlagField) {
	w := s.Width / math.Pow(2, float64(level))
	dx := 1.0 / (float64(s.N0) * math.Pow(float64(s.Ref), float64(level)))
	n := s.unitNormal()
	pos := s.planePos(t)
	f.SetRows(f.Box, func(row cluster.Row, x0, y, z int) {
		ty, tz := float64(center(y, dx)*n[1]), float64(center(z, dx)*n[2])
		for k := range row.Len() {
			if d := float64(center(x0+k, dx)*n[0]) + ty + tz - pos; math.Abs(d) < w {
				row.Set(k)
			}
		}
	})
}

// Dt0 implements Driver: CFL 0.4 at level 0.
func (s *ShockPool3D) Dt0() float64 {
	dx := 1.0 / float64(s.N0)
	k := solver.Advection3D{Vel: s.velocity()}
	return solver.MaxStableDt(k.MaxSpeed(), dx, 0.4)
}

// DomainN implements Driver.
func (s *ShockPool3D) DomainN() int { return s.N0 }

// RefFactor implements Driver.
func (s *ShockPool3D) RefFactor() int { return s.Ref }

// Particles implements Driver: the shock problem has none.
func (s *ShockPool3D) Particles() *solver.ParticleSet { return nil }

// AMR64 drives refinement around randomly scattered collapsing
// clusters, with a particle population concentrated near the cluster
// centres.
type AMR64 struct {
	N0, Ref int
	// NumClusters scatter over the domain with the given Seed.
	NumClusters int
	Seed        int64
	// BaseRadius is a cluster's refined radius at t=0 (physical
	// units); radii grow as (1 + GrowthRate·t) up to MaxRadius,
	// modelling deepening refinement as the collapse proceeds.
	BaseRadius, GrowthRate, MaxRadius float64
	// NumParticles are distributed around the centres.
	NumParticles int

	centers   [][3]float64
	particles *solver.ParticleSet
}

// NewAMR64 returns the standard configuration on an n0^3 domain.
func NewAMR64(n0, ref int, seed int64) *AMR64 {
	a := &AMR64{
		N0: n0, Ref: ref,
		NumClusters:  8,
		Seed:         seed,
		BaseRadius:   0.06,
		GrowthRate:   0.6,
		MaxRadius:    0.16,
		NumParticles: 2048,
	}
	a.init()
	return a
}

func (a *AMR64) init() {
	rng := rand.New(rand.NewSource(a.Seed))
	a.centers = make([][3]float64, a.NumClusters)
	for i := range a.centers {
		a.centers[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	if a.NumParticles > 0 {
		ps := &solver.ParticleSet{Centers: a.centers, G: 0.005, Domain: 1}
		for i := 0; i < a.NumParticles; i++ {
			c := a.centers[i%len(a.centers)]
			var pos, vel [3]float64
			for d := 0; d < 3; d++ {
				pos[d] = math.Mod(c[d]+0.08*(rng.Float64()-0.5)+1, 1)
				vel[d] = 0.05 * (rng.Float64() - 0.5)
			}
			ps.Particles = append(ps.Particles, solver.Particle{Pos: pos, Vel: vel, Mass: 1})
		}
		a.particles = ps
	}
}

// Name implements Driver.
func (a *AMR64) Name() string { return "AMR64" }

// Fields implements Driver.
func (a *AMR64) Fields() []string {
	return []string{solver.FieldQ, solver.FieldPhi, solver.FieldRho}
}

// Kernels implements Driver: hyperbolic fluid plus elliptic Poisson.
func (a *AMR64) Kernels() []solver.Kernel {
	return []solver.Kernel{
		solver.Advection3D{Vel: [3]float64{0.1, 0.07, 0.05}},
		solver.GaussSeidel{Sweeps: 2},
	}
}

// Centers exposes the cluster centres (for tests and traces).
func (a *AMR64) Centers() [][3]float64 { return a.centers }

// radius returns a cluster's refinement radius at time t for the
// given level (finer levels capture the denser core).
func (a *AMR64) radius(level int, t float64) float64 {
	r := a.BaseRadius * (1 + a.GrowthRate*t)
	if r > a.MaxRadius {
		r = a.MaxRadius
	}
	return r / math.Pow(2, float64(level))
}

// InitialCondition implements Driver: density blobs at the centres,
// zero potential, uniform tracer.
func (a *AMR64) InitialCondition(p *grid.Patch, dx float64) {
	level := p.Level
	p.FillFunc(solver.FieldRho, func(i geom.Index) float64 {
		x := cellCenter(i, level, a.N0, a.Ref)
		var rho float64
		for _, c := range a.centers {
			d2 := wrapDist2(x, c)
			rho += math.Exp(-d2 / (2 * a.BaseRadius * a.BaseRadius))
		}
		return rho
	})
	p.FillConstant(solver.FieldPhi, 0)
	p.FillConstant(solver.FieldQ, 1)
}

// Flag implements Driver: cells within any cluster's current radius.
func (a *AMR64) Flag(level int, t float64, f *cluster.FlagField) {
	r := a.radius(level, t)
	r2 := r * r
	dx := 1.0 / (float64(a.N0) * math.Pow(float64(a.Ref), float64(level)))
	// A row keeps the centres it can reach at all: wrapDist2 adds the x
	// term first, so its sum is never below vy²+vz² (rounding is
	// monotone and vx² ≥ 0) and a centre with vy²+vz² ≥ r² flags nothing
	// on the row.
	type reachable struct{ x, vy2, vz2 float64 }
	near := make([]reachable, 0, len(a.centers))
	f.SetRows(f.Box, func(row cluster.Row, x0, y, z int) {
		yc, zc := center(y, dx), center(z, dx)
		near = near[:0]
		for _, c := range a.centers {
			vy, vz := wrap1(yc, c[1]), wrap1(zc, c[2])
			if vy2, vz2 := float64(vy*vy), float64(vz*vz); vy2+vz2 < r2 {
				near = append(near, reachable{c[0], vy2, vz2})
			}
		}
		if len(near) == 0 {
			return
		}
		for k := range row.Len() {
			xc := center(x0+k, dx)
			for _, c := range near {
				if vx := wrap1(xc, c.x); float64(vx*vx)+c.vy2+c.vz2 < r2 {
					row.Set(k)
					break
				}
			}
		}
	})
}

// Dt0 implements Driver.
func (a *AMR64) Dt0() float64 {
	dx := 1.0 / float64(a.N0)
	k := solver.Advection3D{Vel: [3]float64{0.1, 0.07, 0.05}}
	return solver.MaxStableDt(k.MaxSpeed(), dx, 0.4)
}

// DomainN implements Driver.
func (a *AMR64) DomainN() int { return a.N0 }

// RefFactor implements Driver.
func (a *AMR64) RefFactor() int { return a.Ref }

// Particles implements Driver.
func (a *AMR64) Particles() *solver.ParticleSet { return a.particles }

// wrapDist2 is the squared distance on the unit periodic torus. The
// drivers' Flag methods take the same sum a row at a time — x term
// first, then y, then z, each product rounded before it is added — so
// a hoisted row compares the bits this function would.
func wrapDist2(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		v := wrap1(a[d], b[d])
		s += float64(v * v)
	}
	return s
}

// wrap1 is the distance between two coordinates on the unit circle.
func wrap1(a, b float64) float64 {
	v := math.Abs(a - b)
	if v > 0.5 {
		v = 1 - v
	}
	return v
}

// Uniform is a no-refinement driver (unigrid), used by tests and as
// the sequential baseline sanity check.
type Uniform struct{ N0, Ref int }

// Name implements Driver.
func (u *Uniform) Name() string { return "uniform" }

// Fields implements Driver.
func (u *Uniform) Fields() []string { return []string{solver.FieldQ} }

// Kernels implements Driver.
func (u *Uniform) Kernels() []solver.Kernel {
	return []solver.Kernel{solver.Advection3D{Vel: [3]float64{0.2, 0, 0}}}
}

// InitialCondition implements Driver.
func (u *Uniform) InitialCondition(p *grid.Patch, dx float64) {
	p.FillConstant(solver.FieldQ, 1)
}

// Flag implements Driver: nothing.
func (u *Uniform) Flag(int, float64, *cluster.FlagField) {}

// Dt0 implements Driver.
func (u *Uniform) Dt0() float64 { return 0.4 / (0.2 * float64(u.N0)) }

// DomainN implements Driver.
func (u *Uniform) DomainN() int { return u.N0 }

// RefFactor implements Driver.
func (u *Uniform) RefFactor() int { return u.Ref }

// Particles implements Driver.
func (u *Uniform) Particles() *solver.ParticleSet { return nil }

// StaticBlob refines a fixed central region at every level — the
// shape of the paper's Figure 1 hierarchy. Used by tests and the
// hierarchy-dump tool.
type StaticBlob struct {
	N0, Ref int
	// Center and Radius define the refined ball (physical units).
	Center [3]float64
	Radius float64
}

// NewStaticBlob returns a blob centred in the domain.
func NewStaticBlob(n0, ref int) *StaticBlob {
	return &StaticBlob{N0: n0, Ref: ref, Center: [3]float64{0.5, 0.5, 0.5}, Radius: 0.2}
}

// Name implements Driver.
func (b *StaticBlob) Name() string { return "static-blob" }

// Fields implements Driver.
func (b *StaticBlob) Fields() []string { return []string{solver.FieldQ} }

// Kernels implements Driver.
func (b *StaticBlob) Kernels() []solver.Kernel {
	return []solver.Kernel{solver.Advection3D{Vel: [3]float64{0.1, 0.1, 0}}}
}

// InitialCondition implements Driver.
func (b *StaticBlob) InitialCondition(p *grid.Patch, dx float64) {
	level := p.Level
	p.FillFunc(solver.FieldQ, func(i geom.Index) float64 {
		x := cellCenter(i, level, b.N0, b.Ref)
		if wrapDist2(x, b.Center) < b.Radius*b.Radius {
			return 1
		}
		return 0
	})
}

// Flag implements Driver: a ball whose radius halves per level.
func (b *StaticBlob) Flag(level int, t float64, f *cluster.FlagField) {
	r := b.Radius / math.Pow(2, float64(level))
	r2 := r * r
	dx := 1.0 / (float64(b.N0) * math.Pow(float64(b.Ref), float64(level)))
	f.SetRows(f.Box, func(row cluster.Row, x0, y, z int) {
		vy, vz := wrap1(center(y, dx), b.Center[1]), wrap1(center(z, dx), b.Center[2])
		vy2, vz2 := float64(vy*vy), float64(vz*vz)
		for k := range row.Len() {
			if vx := wrap1(center(x0+k, dx), b.Center[0]); float64(vx*vx)+vy2+vz2 < r2 {
				row.Set(k)
			}
		}
	})
}

// Dt0 implements Driver.
func (b *StaticBlob) Dt0() float64 { return 0.4 / (0.2 * float64(b.N0)) }

// DomainN implements Driver.
func (b *StaticBlob) DomainN() int { return b.N0 }

// RefFactor implements Driver.
func (b *StaticBlob) RefFactor() int { return b.Ref }

// Particles implements Driver.
func (b *StaticBlob) Particles() *solver.ParticleSet { return nil }
