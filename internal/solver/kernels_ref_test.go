package solver

import (
	"math/rand"
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// The hot kernels were rewritten from per-cell closures to explicit
// row loops over pooled scratch. These tests pin every rewritten path
// against its retained reference implementation, bit for bit.

func randKernelPatch(t *testing.T, fields ...string) *grid.Patch {
	t.Helper()
	p := grid.NewPatch(geom.UnitCube(12), 0, 2, fields...)
	rng := rand.New(rand.NewSource(41))
	for _, f := range fields {
		p.FillFunc(f, func(geom.Index) float64 { return rng.Float64()*2 - 1 })
	}
	return p
}

func assertFieldsEqual(t *testing.T, want, got *grid.Patch, context string) {
	t.Helper()
	for _, f := range want.FieldNames() {
		wf, gf := want.Field(f), got.Field(f)
		for k := range wf {
			if wf[k] != gf[k] {
				t.Fatalf("%s: field %q differs at flat index %d: want %v, got %v",
					context, f, k, wf[k], gf[k])
			}
		}
	}
}

func TestAdvectionStepMatchesReference(t *testing.T) {
	k := Advection3D{Vel: [3]float64{1, -0.5, 0.25}}
	a := randKernelPatch(t, FieldQ)
	b := a.Clone()
	for i := 0; i < 3; i++ {
		k.Step(a, 0.05, 0.1)
		k.stepReference(b, 0.05, 0.1)
	}
	assertFieldsEqual(t, b, a, "Advection3D.Step")
}

func TestBurgersStepMatchesReference(t *testing.T) {
	k := Burgers3D{}
	a := randKernelPatch(t, FieldQ)
	b := a.Clone()
	for i := 0; i < 3; i++ {
		k.StepFluxes(a, 0.02, 0.1).Release()
		k.stepReference(b, 0.02, 0.1)
	}
	assertFieldsEqual(t, b, a, "Burgers3D.StepFluxes")
}

func TestAdvectionStepFluxesMatchesReference(t *testing.T) {
	k := Advection3D{Vel: [3]float64{0.3, -1, 0.6}}
	a := randKernelPatch(t, FieldQ)
	b := a.Clone()
	fa := k.StepFluxes(a, 0.04, 0.1)
	fb := k.stepFluxesReference(b, 0.04, 0.1)
	assertFieldsEqual(t, b, a, "Advection3D.StepFluxes state")
	for d := 0; d < 3; d++ {
		fa.FaceBox(d).ForEach(func(i geom.Index) {
			if fa.At(d, i) != fb.At(d, i) {
				t.Fatalf("flux dim %d at %v: pooled %v, reference %v", d, i, fa.At(d, i), fb.At(d, i))
			}
		})
	}
	fa.Release()
}

func TestBurgersStepFluxesMatchesReferenceFluxes(t *testing.T) {
	k := Burgers3D{}
	a := randKernelPatch(t, FieldQ)
	b := a.Clone()
	fa := k.StepFluxes(a, 0.02, 0.1)
	fb := k.stepReference(b, 0.02, 0.1)
	assertFieldsEqual(t, b, a, "Burgers3D.StepFluxes state")
	for d := 0; d < 3; d++ {
		fa.FaceBox(d).ForEach(func(i geom.Index) {
			if fa.At(d, i) != fb.At(d, i) {
				t.Fatalf("flux dim %d at %v: pooled %v, reference %v", d, i, fa.At(d, i), fb.At(d, i))
			}
		})
	}
	fa.Release()
}

// TestFluxesReuseZeroed: a Fluxes recycled through Release/NewFluxes
// must come back zero-filled — kernels accumulate into it and depend
// on the documented zeroed contract.
func TestFluxesReuseZeroed(t *testing.T) {
	box := geom.UnitCube(6)
	fl := NewFluxes(box)
	for d := 0; d < 3; d++ {
		fl.FaceBox(d).ForEach(func(i geom.Index) { fl.Set(d, i, 3.5) })
	}
	fl.Release()
	// Drain the pool until we either see a recycled buffer or give up;
	// sync.Pool gives no guarantees, so only recycled ones are checked.
	for tries := 0; tries < 8; tries++ {
		got := NewFluxes(box)
		for d := 0; d < 3; d++ {
			got.FaceBox(d).ForEach(func(i geom.Index) {
				if got.At(d, i) != 0 {
					t.Fatalf("recycled Fluxes not zeroed: dim %d at %v = %v", d, i, got.At(d, i))
				}
			})
		}
		got.Release()
	}
}

// refGaussSeidel is the closure-based original red-black sweep, kept
// here as the parity oracle for the strided rewrite.
func refGaussSeidel(gs GaussSeidel, p *grid.Patch, dx float64) {
	phi := p.Field(FieldPhi)
	rho := p.Field(FieldRho)
	g := p.Grown()
	s := g.Shape()
	stride := [3]int{1, s[0], s[0] * s[1]}
	h2 := dx * dx
	for sweep := 0; sweep < gs.sweeps(); sweep++ {
		for color := 0; color < 2; color++ {
			p.Box.ForEach(func(i geom.Index) {
				if (i[0]+i[1]+i[2])&1 != color {
					return
				}
				off := g.Offset(i)
				nb := phi[off-stride[0]] + phi[off+stride[0]] +
					phi[off-stride[1]] + phi[off+stride[1]] +
					phi[off-stride[2]] + phi[off+stride[2]]
				target := (nb - h2*rho[off]) / 6.0
				phi[off] += target - phi[off]
			})
		}
	}
}

func TestGaussSeidelMatchesReference(t *testing.T) {
	for _, lo := range []geom.Index{{0, 0, 0}, {-3, 1, -2}} {
		gs := GaussSeidel{Sweeps: 3}
		box := geom.Box{Lo: lo, Hi: lo.Add(geom.Index{8, 9, 10})}
		a := grid.NewPatch(box, 0, 1, FieldPhi, FieldRho)
		rng := rand.New(rand.NewSource(17))
		for _, f := range []string{FieldPhi, FieldRho} {
			a.FillFunc(f, func(geom.Index) float64 { return rng.Float64() })
		}
		b := a.Clone()
		gs.Step(a, 0, 0.1)
		refGaussSeidel(gs, b, 0.1)
		assertFieldsEqual(t, b, a, "GaussSeidel.Step")
	}
}

// stepReference is the original closure-based Step, kept verbatim as
// the bit-exactness baseline.
func (a Advection3D) stepReference(p *grid.Patch, dt, dx float64) {
	checkFieldList(p, a.Name(), qFields)
	if p.NGhost < 1 {
		panic("solver.Advection3D: needs at least one ghost cell")
	}
	q := p.Field(FieldQ)
	g := p.Grown()
	s := g.Shape()
	stride := [3]int{1, s[0], s[0] * s[1]}
	out := make([]float64, len(q))
	copy(out, q)
	lam := dt / dx
	p.Box.ForEach(func(i geom.Index) {
		off := g.Offset(i)
		du := 0.0
		for d := 0; d < 3; d++ {
			v := a.Vel[d]
			if v >= 0 {
				du -= v * lam * (q[off] - q[off-stride[d]])
			} else {
				du -= v * lam * (q[off+stride[d]] - q[off])
			}
		}
		out[off] = q[off] + du
	})
	copy(q, out)
}

// stepReference is the original closure-based step, kept verbatim as
// the bit-exactness baseline. It returns the
// (heap-allocated, never pooled) fluxes it applied.
func (k Burgers3D) stepReference(p *grid.Patch, dt, dx float64) *Fluxes {
	checkFieldList(p, k.Name(), qFields)
	if p.NGhost < 1 {
		panic("solver.Burgers3D: needs at least one ghost cell")
	}
	q := p.Field(FieldQ)
	g := p.Grown()
	s := g.Shape()
	stride := [3]int{1, s[0], s[0] * s[1]}
	lam := dt / dx
	fl := newFluxesAlloc(p.Box)
	for d := 0; d < 3; d++ {
		fl.FaceBox(d).ForEach(func(i geom.Index) {
			off := g.Offset(i)
			fl.Set(d, i, lam*godunovFlux(q[off-stride[d]], q[off]))
		})
	}
	out := make([]float64, len(q))
	copy(out, q)
	p.Box.ForEach(func(i geom.Index) {
		off := g.Offset(i)
		var du float64
		for d := 0; d < 3; d++ {
			hi := i
			hi[d]++
			du -= fl.At(d, hi) - fl.At(d, i)
		}
		out[off] = q[off] + du
	})
	copy(q, out)
	return fl
}

// newFluxesAlloc always heap-allocates (reference paths, so the
// pooled fast path can be compared against untouched baselines).
func newFluxesAlloc(box geom.Box) *Fluxes {
	fl := &Fluxes{Box: box}
	for d := 0; d < 3; d++ {
		fl.faceBox[d] = box.GrowDim(d, 0, 1)
		fl.f[d] = make([]float64, fl.faceBox[d].NumCells())
	}
	return fl
}

// stepFluxesReference is the original closure-based implementation of
// StepFluxes, kept verbatim as the bit-exactness baseline. It never touches the reuse pools.
func (a Advection3D) stepFluxesReference(p *grid.Patch, dt, dx float64) *Fluxes {
	checkFieldList(p, a.Name(), qFields)
	if p.NGhost < 1 {
		panic("solver.Advection3D: needs at least one ghost cell")
	}
	q := p.Field(FieldQ)
	g := p.Grown()
	s := g.Shape()
	stride := [3]int{1, s[0], s[0] * s[1]}
	lam := dt / dx
	fl := newFluxesAlloc(p.Box)
	for d := 0; d < 3; d++ {
		v := a.Vel[d]
		fl.faceBox[d].ForEach(func(i geom.Index) {
			off := g.Offset(i)
			var qup float64
			if v >= 0 {
				qup = q[off-stride[d]] // face's lower cell
			} else {
				qup = q[off]
			}
			fl.Set(d, i, v*lam*qup)
		})
	}
	// Apply: q_i -= F(i+e_d) - F(i).
	out := make([]float64, len(q))
	copy(out, q)
	p.Box.ForEach(func(i geom.Index) {
		off := g.Offset(i)
		var du float64
		for d := 0; d < 3; d++ {
			var hi geom.Index
			hi = i
			hi[d]++
			du -= fl.At(d, hi) - fl.At(d, i)
		}
		out[off] = q[off] + du
	})
	copy(q, out)
	return fl
}
