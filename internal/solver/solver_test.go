package solver

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

func newQPatch(n, ng int) *grid.Patch {
	return grid.NewPatch(geom.UnitCube(n), 0, ng, FieldQ)
}

// periodicFill fills the patch's ghost cells from its own interior
// assuming the patch covers the whole periodic domain: the single-grid
// fixture of the kernel tests (multi-grid ghost exchange is package
// amr's).
func periodicFill(p *grid.Patch, name string) {
	f := p.Field(name)
	g := p.Grown()
	sh := p.Box.Shape()
	g.ForEach(func(i geom.Index) {
		if p.Box.Contains(i) {
			return
		}
		var src geom.Index
		for d := 0; d < 3; d++ {
			v := i[d]
			for v < p.Box.Lo[d] {
				v += sh[d]
			}
			for v > p.Box.Hi[d] {
				v -= sh[d]
			}
			src[d] = v
		}
		f[g.Offset(i)] = f[g.Offset(src)]
	})
}

// residual returns the max-norm of ∇²φ − ρ over the patch interior.
func residual(p *grid.Patch, dx float64) float64 {
	phi := p.Field(FieldPhi)
	rho := p.Field(FieldRho)
	g := p.Grown()
	s := g.Shape()
	stride := [3]int{1, s[0], s[0] * s[1]}
	h2 := dx * dx
	var worst float64
	p.Box.ForEach(func(i geom.Index) {
		off := g.Offset(i)
		lap := (phi[off-stride[0]] + phi[off+stride[0]] +
			phi[off-stride[1]] + phi[off+stride[1]] +
			phi[off-stride[2]] + phi[off+stride[2]] - 6*phi[off]) / h2
		r := lap - rho[off]
		if r < 0 {
			r = -r
		}
		if r > worst {
			worst = r
		}
	})
	return worst
}

// kineticEnergy is the total kinetic energy of the set: a sanity
// measure of the integrator (bounded orbits under a central force).
func kineticEnergy(ps *ParticleSet) float64 {
	var e float64
	for _, p := range ps.Particles {
		v2 := p.Vel[0]*p.Vel[0] + p.Vel[1]*p.Vel[1] + p.Vel[2]*p.Vel[2]
		e += 0.5 * p.Mass * v2
	}
	return e
}

func TestAdvectionConservesMassPeriodic(t *testing.T) {
	p := newQPatch(12, 1)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		return math.Sin(2*math.Pi*float64(i[0])/12) + 2
	})
	k := Advection3D{Vel: [3]float64{1, 0.5, -0.25}}
	dx := 1.0 / 12
	dt := MaxStableDt(k.MaxSpeed(), dx, 0.5)
	before := p.Sum(FieldQ)
	for s := 0; s < 20; s++ {
		periodicFill(p, FieldQ)
		k.Step(p, dt, dx)
	}
	after := p.Sum(FieldQ)
	if math.Abs(after-before) > 1e-9*math.Abs(before) {
		t.Errorf("mass not conserved: %v -> %v", before, after)
	}
}

func TestAdvectionTranslatesProfile(t *testing.T) {
	// Advect a profile exactly one cell per step (CFL=1 upwind is
	// exact for 1-D motion): after n steps the profile shifts n cells.
	n := 8
	p := newQPatch(n, 1)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		if i[0] == 2 {
			return 1
		}
		return 0
	})
	k := Advection3D{Vel: [3]float64{1, 0, 0}}
	dx := 1.0
	dt := 1.0 // CFL exactly 1
	periodicFill(p, FieldQ)
	k.Step(p, dt, dx)
	if got := p.At(FieldQ, geom.Index{3, 3, 3}); got != 1 {
		t.Errorf("profile did not shift: q(3)= %v", got)
	}
	if got := p.At(FieldQ, geom.Index{2, 3, 3}); got != 0 {
		t.Errorf("old position not cleared: q(2)= %v", got)
	}
}

func TestAdvectionNegativeVelocityUpwinding(t *testing.T) {
	n := 8
	p := newQPatch(n, 1)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		if i[1] == 5 {
			return 1
		}
		return 0
	})
	k := Advection3D{Vel: [3]float64{0, -1, 0}}
	periodicFill(p, FieldQ)
	k.Step(p, 1.0, 1.0)
	if got := p.At(FieldQ, geom.Index{3, 4, 3}); got != 1 {
		t.Errorf("profile should move to y=4, got q= %v", got)
	}
}

func TestAdvectionStability(t *testing.T) {
	// Under the CFL limit the max must not grow (monotone scheme).
	p := newQPatch(10, 1)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		if i[0] == 5 && i[1] == 5 && i[2] == 5 {
			return 1
		}
		return 0
	})
	k := Advection3D{Vel: [3]float64{1, 1, 1}}
	dx := 0.1
	dt := MaxStableDt(k.MaxSpeed(), dx, 0.9)
	for s := 0; s < 50; s++ {
		periodicFill(p, FieldQ)
		k.Step(p, dt, dx)
		if m := p.MaxAbs(FieldQ); m > 1.0+1e-12 {
			t.Fatalf("monotone scheme overshot at step %d: max %v", s, m)
		}
	}
}

func TestMaxStableDt(t *testing.T) {
	if got := MaxStableDt(2, 0.1, 0.5); math.Abs(got-0.025) > 1e-15 {
		t.Errorf("MaxStableDt = %v", got)
	}
	if !math.IsInf(MaxStableDt(0, 0.1, 0.5), 1) {
		t.Error("zero speed should give infinite dt")
	}
}

func TestGaussSeidelReducesResidual(t *testing.T) {
	p := grid.NewPatch(geom.UnitCube(8), 0, 1, FieldPhi, FieldRho)
	p.FillFunc(FieldRho, func(i geom.Index) float64 {
		if i == (geom.Index{4, 4, 4}) {
			return 1
		}
		return 0
	})
	dx := 1.0 / 8
	r0 := residual(p, dx)
	gs := GaussSeidel{Sweeps: 10}
	gs.Step(p, 0, dx)
	r1 := residual(p, dx)
	gs.Step(p, 0, dx)
	r2 := residual(p, dx)
	if !(r1 < r0 && r2 < r1) {
		t.Errorf("residual not decreasing: %v %v %v", r0, r1, r2)
	}
}

func TestGaussSeidelConvergesToSolution(t *testing.T) {
	// Zero source with zero Dirichlet boundary: φ must relax to 0.
	p := grid.NewPatch(geom.UnitCube(6), 0, 1, FieldPhi, FieldRho)
	p.FillFunc(FieldPhi, func(i geom.Index) float64 {
		if p.Box.Contains(i) {
			return 1 // interior initial guess
		}
		return 0 // boundary condition in ghosts
	})
	gs := GaussSeidel{Sweeps: 200}
	gs.Step(p, 0, 1.0/6)
	if m := p.MaxAbs(FieldPhi); m > 1e-6 {
		t.Errorf("phi did not relax to zero: max %v", m)
	}
}

func TestGaussSeidelDefaults(t *testing.T) {
	gs := GaussSeidel{}
	if gs.sweeps() != 4 {
		t.Errorf("defaults wrong: %d", gs.sweeps())
	}
	if gs.FlopsPerCell() != 40 {
		t.Errorf("FlopsPerCell = %v", gs.FlopsPerCell())
	}
}

func TestKernelFieldCheckPanics(t *testing.T) {
	p := grid.NewPatch(geom.UnitCube(4), 0, 1, "other")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing field")
		}
	}()
	Advection3D{}.Step(p, 0.1, 0.1)
}

func TestParticleLeapfrogBoundedOrbit(t *testing.T) {
	ps := &ParticleSet{
		Particles: []Particle{{Pos: [3]float64{0.6, 0.5, 0.5}, Vel: [3]float64{0, 0.3, 0}, Mass: 1}},
		Centers:   [][3]float64{{0.5, 0.5, 0.5}},
		G:         0.01,
		Domain:    1,
	}
	for s := 0; s < 2000; s++ {
		ps.Step(0.01, nil)
		p := ps.Particles[0].Pos
		for d := 0; d < 3; d++ {
			if p[d] < 0 || p[d] >= 1 {
				t.Fatalf("particle escaped periodic domain: %v", p)
			}
		}
	}
	if e := kineticEnergy(ps); math.IsNaN(e) || math.IsInf(e, 0) || e > 100 {
		t.Errorf("kinetic energy blew up: %v", e)
	}
}

func TestParticleFreeStreaming(t *testing.T) {
	ps := &ParticleSet{
		Particles: []Particle{{Pos: [3]float64{0.1, 0.1, 0.1}, Vel: [3]float64{0.1, 0, 0}, Mass: 1}},
		Domain:    1,
	}
	for s := 0; s < 95; s++ {
		ps.Step(0.1, nil)
	}
	// No force: x = 0.1 + 95*0.1*0.1 = 1.05 -> wraps to 0.05.
	if got := ps.Particles[0].Pos[0]; math.Abs(got-0.05) > 1e-12 {
		t.Errorf("free streaming pos = %v", got)
	}
}

// TestParticleStepPoolWidth: pushing particles in chunks over a pool
// of two or four workers gives the bits the serial push gives.
func TestParticleStepPoolWidth(t *testing.T) {
	fresh := func() *ParticleSet {
		ps := &ParticleSet{Centers: [][3]float64{{0.3, 0.4, 0.5}, {0.7, 0.2, 0.6}}, G: 0.005, Domain: 1}
		for i := 0; i < 1000; i++ {
			f := float64(i) / 1000
			ps.Particles = append(ps.Particles, Particle{Pos: [3]float64{f, math.Mod(3*f, 1), math.Mod(7*f, 1)}, Vel: [3]float64{0.01, -0.02, f / 50}, Mass: 1})
		}
		return ps
	}
	want := fresh()
	for s := 0; s < 20; s++ {
		want.Step(0.05, nil)
	}
	for _, w := range []int{2, 4} {
		if k := NewPool(w).Chunks(len(want.Particles), particleChunk); k != min(w, 3) {
			t.Fatalf("%d workers cut %d particles into %d chunks", w, len(want.Particles), k)
		}
		got := fresh()
		for s := 0; s < 20; s++ {
			got.Step(0.05, NewPool(w))
		}
		for i := range want.Particles {
			if got.Particles[i] != want.Particles[i] {
				t.Fatalf("%d workers: particle %d is %+v, serial push %+v", w, i, got.Particles[i], want.Particles[i])
			}
		}
	}
}

func TestParticleCountInRegion(t *testing.T) {
	ps := &ParticleSet{Particles: []Particle{
		{Pos: [3]float64{0.1, 0.1, 0.1}},
		{Pos: [3]float64{0.6, 0.6, 0.6}},
		{Pos: [3]float64{0.4, 0.4, 0.4}},
	}}
	n := ps.CountInRegion([3]float64{0, 0, 0}, [3]float64{0.5, 0.5, 0.5})
	if n != 2 {
		t.Errorf("CountInRegion = %d", n)
	}
}

func TestPoolForEachCoversAll(t *testing.T) {
	p := NewPool(4)
	var hits [100]int32
	p.ForEach(100, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestPoolSingleWorkerAndEmpty(t *testing.T) {
	p := NewPool(1)
	sum := 0
	p.ForEach(10, func(i int) { sum += i }) // sequential path, no race
	if sum != 45 {
		t.Errorf("sum = %d", sum)
	}
	p.ForEach(0, func(int) { t.Error("must not be called") })
	if NewPool(0).Workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
}

// TestPoolForChunks: the chunks are one per worker but none shorter
// than the minimum, and they cover [0,n) in order, chunk c before c+1.
func TestPoolForChunks(t *testing.T) {
	for _, tc := range []struct {
		pool            *Pool
		n, minLen, want int
	}{
		{nil, 1000, 10, 1},
		{NewPool(1), 1000, 10, 1},
		{NewPool(4), 1000, 10, 4},
		{NewPool(4), 30, 10, 3},
		{NewPool(4), 9, 10, 1},
		{NewPool(4), 0, 10, 1},
	} {
		k := tc.pool.Chunks(tc.n, tc.minLen)
		if k != tc.want {
			t.Errorf("%d workers, n=%d, min %d: %d chunks, want %d", tc.pool.Workers(), tc.n, tc.minLen, k, tc.want)
		}
		ranges := make([][2]int, k)
		tc.pool.ForChunks(tc.n, tc.minLen, func(c, lo, hi int) { ranges[c] = [2]int{lo, hi} })
		next := 0
		for c, r := range ranges {
			if r[0] != next || r[1] < r[0] || (k > 1 && r[1]-r[0] < tc.minLen) {
				t.Fatalf("%d workers, n=%d: chunk %d is [%d,%d) after %d", tc.pool.Workers(), tc.n, c, r[0], r[1], next)
			}
			next = r[1]
		}
		if next != tc.n {
			t.Errorf("%d workers, n=%d: chunks end at %d", tc.pool.Workers(), tc.n, next)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	// Unsynchronised appends: the race detector fails this test if the
	// loop ever leaves the calling goroutine.
	var order []int
	p.ForEach(6, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("visit order %v, want 0..5 ascending", order)
		}
	}
	if len(order) != 6 {
		t.Errorf("visited %d indices, want 6", len(order))
	}
	p.ForEach(0, func(int) { t.Error("must not be called") })
}

// TestPoolPanicReachesCaller: a panic on a worker is re-raised on the
// calling goroutine, and when jobs 3 and 7 of 10 both panic the caller
// sees job 3's value at every core count, whichever of the two panics
// first on a multi-worker pool.
func TestPoolPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, threeFirst := range []bool{false, true} {
			// started7 lets job 3 wait for job 7 to be running; on the
			// inline path job 7 never starts first, hence the timeout.
			started7 := make(chan struct{})
			got := func() (v any) {
				defer func() { v = recover() }()
				NewPool(0).ForEach(10, func(i int) {
					switch {
					case i == 3 && threeFirst:
						select {
						case <-started7:
						case <-time.After(100 * time.Millisecond):
						}
						panic(i)
					case i == 7 && threeFirst:
						close(started7)
						time.Sleep(20 * time.Millisecond)
						panic(i)
					case i == 3:
						time.Sleep(20 * time.Millisecond)
						panic(i)
					case i == 7:
						panic(i)
					}
				})
				return nil
			}()
			if got != 3 {
				t.Errorf("GOMAXPROCS=%d, job 3 panics first %v: caller recovered %v, want 3", procs, threeFirst, got)
			}
		}
	}
}

func TestKernelMetadata(t *testing.T) {
	ks := []Kernel{Advection3D{}, Burgers3D{}, GaussSeidel{}}
	for _, k := range ks {
		if k.Name() == "" || k.FlopsPerCell() <= 0 || len(k.Fields()) == 0 {
			t.Errorf("kernel %T metadata incomplete", k)
		}
	}
}

func TestAdvectionFirstOrderConvergence(t *testing.T) {
	// Advect a smooth profile one revolution on periodic grids of two
	// resolutions: the L1 error of the first-order upwind scheme must
	// shrink by roughly 2x when dx halves.
	errAt := func(n int) float64 {
		p := grid.NewPatch(geom.UnitCube(n), 0, 1, FieldQ)
		exact := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
		p.FillFunc(FieldQ, func(i geom.Index) float64 {
			return exact((float64(i[0]) + 0.5) / float64(n))
		})
		k := Advection3D{Vel: [3]float64{1, 0, 0}}
		dx := 1.0 / float64(n)
		steps := 2 * n // CFL 0.5, half a revolution
		dt := 0.5 * dx
		for s := 0; s < steps; s++ {
			periodicFill(p, FieldQ)
			k.Step(p, dt, dx)
		}
		// After time = steps*dt = 1.0*...: travelled distance = steps*dt*v = n*dx = 1 -> full revolution.
		var err float64
		p.Box.ForEach(func(i geom.Index) {
			x := (float64(i[0]) + 0.5) / float64(n)
			err += math.Abs(p.At(FieldQ, i) - exact(x))
		})
		return err / float64(p.Box.NumCells())
	}
	e1, e2 := errAt(16), errAt(32)
	ratio := e1 / e2
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("first-order convergence ratio = %v (errors %v, %v), want ~2", ratio, e1, e2)
	}
}
