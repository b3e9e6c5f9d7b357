package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// The hot kernels were rewritten from per-cell closures to explicit
// row loops walked by stride. These tests pin every rewritten path
// against its retained reference implementation, bit for bit.

// At returns the flux through face (d, i) — the lower face of cell i
// in dimension d. The face must exist for this box.
func (fl *Fluxes) At(d int, i geom.Index) float64 {
	return fl.f[d][fl.faceBox[d].Offset(i)]
}

// Set stores a face flux.
func (fl *Fluxes) Set(d int, i geom.Index, v float64) {
	fl.f[d][fl.faceBox[d].Offset(i)] = v
}

func randKernelPatch(t *testing.T, fields ...string) *grid.Patch {
	t.Helper()
	return randPatchOver(geom.UnitCube(12), 2, 41, fields...)
}

// randPatchOver is a patch over box with ng ghosts whose fields hold
// seeded values in [-1, 1), ghosts included.
func randPatchOver(box geom.Box, ng int, seed int64, fields ...string) *grid.Patch {
	p := grid.NewPatch(box, 0, ng, fields...)
	rng := rand.New(rand.NewSource(seed))
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

// oddShape is a kernel box and its ghost width.
type oddShape struct {
	box geom.Box
	ng  int
}

// oddShapes are kernel boxes a cube cannot stand in for: non-cubic,
// at negative and odd Lo of both parities, with x-extents 1, 2 and 5
// (a swapped x/y extent in a stride shows) and 1, 2 and 3 ghosts.
func oddShapes() []oddShape {
	var out []oddShape
	i := 0
	for _, nx := range []int{1, 2, 5} {
		for ng := 1; ng <= 3; ng++ {
			lo := geom.Index{i - 4, 3 - i, i - 7}
			ext := geom.Index{nx, 3 + i%4, 6 - i%3}
			out = append(out, oddShape{geom.Box{Lo: lo, Hi: lo.Add(ext).Add(geom.Index{-1, -1, -1})}, ng})
			i++
		}
	}
	return out
}

// assertFluxesEqual compares every face flux of got against want.
func assertFluxesEqual(t *testing.T, want, got *Fluxes, context string) {
	t.Helper()
	for d := 0; d < 3; d++ {
		got.FaceBox(d).ForEach(func(i geom.Index) {
			if got.At(d, i) != want.At(d, i) {
				t.Fatalf("%s: flux dim %d at %v: got %v, reference %v", context, d, i, got.At(d, i), want.At(d, i))
			}
		})
	}
}

// assertGhostsUntouched fails if any ghost cell of after differs from
// before: a step writes the interior only.
func assertGhostsUntouched(t *testing.T, before, after *grid.Patch, context string) {
	t.Helper()
	for _, f := range before.FieldNames() {
		after.Grown().ForEach(func(i geom.Index) {
			if !after.Box.Contains(i) && after.At(f, i) != before.At(f, i) {
				t.Fatalf("%s: ghost %v of %q changed: %v -> %v", context, i, f, before.At(f, i), after.At(f, i))
			}
		})
	}
}

// TestKernelsMatchReferenceOnOddShapes pins every kernel path, bit for
// bit, against its reference on each of oddShapes, and checks that no
// step writes a ghost cell.
func TestKernelsMatchReferenceOnOddShapes(t *testing.T) {
	adv := Advection3D{Vel: [3]float64{0.7, -0.4, 0.3}}
	advNeg := Advection3D{Vel: [3]float64{-0.6, 0.5, -0.2}}
	for n, sh := range oddShapes() {
		box, ng := sh.box, sh.ng
		t.Run(fmt.Sprintf("%v/ng%d", box, ng), func(t *testing.T) {
			for _, k := range []Advection3D{adv, advNeg} {
				a := randPatchOver(box, ng, int64(n), FieldQ)
				b, orig := a.Clone(), a.Clone()
				k.Step(a, 0.05, 0.1)
				k.stepReference(b, 0.05, 0.1)
				assertFieldsEqual(t, b, a, "Advection3D.Step")
				assertGhostsUntouched(t, orig, a, "Advection3D.Step")

				a, b = orig.Clone(), orig.Clone()
				fa := k.StepFluxes(a, 0.05, 0.1)
				fb := k.stepFluxesReference(b, 0.05, 0.1)
				assertFieldsEqual(t, b, a, "Advection3D.StepFluxes")
				assertFluxesEqual(t, fb, fa, "Advection3D.StepFluxes")
				assertGhostsUntouched(t, orig, a, "Advection3D.StepFluxes")
				fa.Release()
			}

			a := randPatchOver(box, ng, int64(n), FieldQ)
			b, orig := a.Clone(), a.Clone()
			fa := Burgers3D{}.StepFluxes(a, 0.02, 0.1)
			fb := Burgers3D{}.stepReference(b, 0.02, 0.1)
			assertFieldsEqual(t, b, a, "Burgers3D.StepFluxes")
			assertFluxesEqual(t, fb, fa, "Burgers3D.StepFluxes")
			assertGhostsUntouched(t, orig, a, "Burgers3D.StepFluxes")
			fa.Release()

			gs := GaussSeidel{Sweeps: 2}
			a = randPatchOver(box, ng, int64(n), FieldPhi, FieldRho)
			b, orig = a.Clone(), a.Clone()
			gs.Step(a, 0, 0.1)
			refGaussSeidel(gs, b, 0.1)
			assertFieldsEqual(t, b, a, "GaussSeidel.Step")
			assertGhostsUntouched(t, orig, a, "GaussSeidel.Step")
		})
	}
}

// TestPatchRowLoopsMatchPerCell pins FillFunc (its call order included),
// Sum and MaxAbs against per-cell ForEach references on oddShapes.
func TestPatchRowLoopsMatchPerCell(t *testing.T) {
	for n, sh := range oddShapes() {
		box := sh.box
		p := grid.NewPatch(box, 0, sh.ng, FieldQ)
		rng := rand.New(rand.NewSource(int64(n)))
		p.FillFunc(FieldQ, func(geom.Index) float64 { return rng.Float64()*2 - 1 })

		want := grid.NewPatch(box, 0, sh.ng, FieldQ)
		rng = rand.New(rand.NewSource(int64(n)))
		want.Grown().ForEach(func(i geom.Index) { want.Set(FieldQ, i, rng.Float64()*2-1) })
		assertFieldsEqual(t, want, p, fmt.Sprintf("FillFunc over %v", box))

		var sum, maxAbs float64
		p.Box.ForEach(func(i geom.Index) {
			v := p.At(FieldQ, i)
			sum += v
			maxAbs = math.Max(maxAbs, math.Abs(v))
		})
		if got := p.Sum(FieldQ); got != sum {
			t.Errorf("Sum over %v: %v, per-cell %v", box, got, sum)
		}
		if got := p.MaxAbs(FieldQ); got != maxAbs {
			t.Errorf("MaxAbs over %v: %v, per-cell %v", box, got, maxAbs)
		}
	}
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
