package solver

import "math"

// Particle is a point mass with position and velocity in continuous
// domain coordinates. The AMR64 dataset integrates "a set of ordinary
// differential equations for the particle trajectories"; this leapfrog
// integrator reproduces that workload component.
type Particle struct {
	Pos  [3]float64
	Vel  [3]float64
	Mass float64
}

// ParticleSet integrates particles under a smooth central-attractor
// force field (a cheap stand-in for self-gravity toward cluster
// centres). Forces from the actual mesh potential are not needed for
// the DLB study — only the per-particle cost and the particle motion
// that drives refinement matter.
type ParticleSet struct {
	Particles []Particle
	// Centers are the attractor positions; each particle accelerates
	// toward its nearest centre.
	Centers [][3]float64
	// G scales the attraction strength.
	G float64
	// Domain is the periodic domain edge length; positions wrap.
	Domain float64
}

// FlopsPerParticle is the nominal per-particle cost of one kick-drift
// step, used by the compute model.
const FlopsPerParticle = 40.0

// particleChunk is the fewest particles Step gives one pool task.
const particleChunk = 256

// Step advances all particles by dt with kick-drift-kick leapfrog,
// in contiguous ranges over the pool. A particle reads only itself and
// the centres, so the result is the serial one at any pool width.
func (ps *ParticleSet) Step(dt float64, pool *Pool) {
	pool.ForChunks(len(ps.Particles), particleChunk, func(_, lo, hi int) { ps.stepRange(dt, lo, hi) })
}

// stepRange advances particles [lo,hi) by dt.
func (ps *ParticleSet) stepRange(dt float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := &ps.Particles[i]
		a := ps.accel(p.Pos)
		for d := 0; d < 3; d++ {
			p.Vel[d] += 0.5 * dt * a[d]
			p.Pos[d] += dt * p.Vel[d]
			if ps.Domain > 0 {
				p.Pos[d] = math.Mod(p.Pos[d]+ps.Domain, ps.Domain)
			}
		}
		a = ps.accel(p.Pos)
		for d := 0; d < 3; d++ {
			p.Vel[d] += 0.5 * dt * a[d]
		}
	}
}

func (ps *ParticleSet) accel(pos [3]float64) [3]float64 {
	if len(ps.Centers) == 0 {
		return [3]float64{}
	}
	// Find nearest centre.
	best, bd := 0, math.Inf(1)
	for i, c := range ps.Centers {
		d := dist2(pos, c)
		if d < bd {
			best, bd = i, d
		}
	}
	c := ps.Centers[best]
	r := math.Sqrt(bd) + 1e-6
	var a [3]float64
	for d := 0; d < 3; d++ {
		a[d] = ps.G * (c[d] - pos[d]) / (r * r * r)
	}
	return a
}

// CountInRegion returns how many particles lie in the axis-aligned
// region [lo,hi) of domain coordinates.
func (ps *ParticleSet) CountInRegion(lo, hi [3]float64) int {
	n := 0
	for _, p := range ps.Particles {
		in := true
		for d := 0; d < 3; d++ {
			if p.Pos[d] < lo[d] || p.Pos[d] >= hi[d] {
				in = false
				break
			}
		}
		if in {
			n++
		}
	}
	return n
}

func dist2(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		v := a[d] - b[d]
		s += v * v
	}
	return s
}
