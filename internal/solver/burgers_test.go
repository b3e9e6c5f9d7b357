package solver

import (
	"math"
	"testing"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

func TestBurgersShockFormation(t *testing.T) {
	// A smooth sine steepens: the maximum gradient must grow.
	n := 32
	p := grid.NewPatch(geom.UnitCube(n), 0, 1, FieldQ)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		return 0.5 + 0.4*math.Sin(2*math.Pi*float64(i[0])/float64(n))
	})
	k := Burgers3D{}
	dx := 1.0 / float64(n)
	dt := MaxStableDt(k.MaxSpeed(0.9), dx, 0.4)
	grad0 := maxGradX(p)
	for s := 0; s < 90; s++ {
		periodicFill(p, FieldQ)
		k.Step(p, dt, dx)
	}
	if g := maxGradX(p); g <= grad0*1.5 {
		t.Errorf("Burgers did not steepen: gradient %v -> %v", grad0, g)
	}
}

func maxGradX(p *grid.Patch) float64 {
	var worst float64
	p.Box.ForEach(func(i geom.Index) {
		j := i
		j[0]++
		if !p.Box.Contains(j) {
			return
		}
		g := math.Abs(p.At(FieldQ, j) - p.At(FieldQ, i))
		if g > worst {
			worst = g
		}
	})
	return worst
}

func TestBurgersConservesMassPeriodic(t *testing.T) {
	n := 16
	p := grid.NewPatch(geom.UnitCube(n), 0, 1, FieldQ)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		return 0.3 + 0.2*math.Sin(2*math.Pi*float64(i[1])/float64(n))
	})
	k := Burgers3D{}
	dx := 1.0 / float64(n)
	dt := MaxStableDt(k.MaxSpeed(0.5), dx, 0.4)
	before := p.Sum(FieldQ)
	for s := 0; s < 20; s++ {
		periodicFill(p, FieldQ)
		k.Step(p, dt, dx)
	}
	if after := p.Sum(FieldQ); math.Abs(after-before) > 1e-9*math.Abs(before) {
		t.Errorf("Burgers mass not conserved: %v -> %v", before, after)
	}
}

func TestBurgersEntropyNoNewExtrema(t *testing.T) {
	// Godunov is monotone: max must not grow, min must not fall.
	n := 16
	p := grid.NewPatch(geom.UnitCube(n), 0, 1, FieldQ)
	p.FillFunc(FieldQ, func(i geom.Index) float64 {
		if i[0] < n/2 {
			return 1
		}
		return -0.5
	})
	k := Burgers3D{}
	dx := 1.0 / float64(n)
	dt := MaxStableDt(k.MaxSpeed(1), dx, 0.4)
	for s := 0; s < 20; s++ {
		periodicFill(p, FieldQ)
		k.Step(p, dt, dx)
		lo, hi := math.Inf(1), math.Inf(-1)
		p.Box.ForEach(func(i geom.Index) {
			v := p.At(FieldQ, i)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		})
		if hi > 1+1e-12 || lo < -0.5-1e-12 {
			t.Fatalf("new extrema at step %d: [%v, %v]", s, lo, hi)
		}
	}
}

func TestGodunovFluxCases(t *testing.T) {
	cases := []struct{ ql, qr, want float64 }{
		{1, 1, 0.5},     // uniform right-moving
		{-1, -1, 0.5},   // uniform left-moving
		{1, -1, 0.5},    // shock with zero speed: max of both
		{-1, 1, 0},      // transonic rarefaction: sonic point flux 0
		{2, 1, 2},       // right-moving shock: f(ql)
		{0.5, 2, 0.125}, // right-moving rarefaction: f(ql)
	}
	for _, c := range cases {
		if got := godunovFlux(c.ql, c.qr); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("godunovFlux(%v,%v) = %v, want %v", c.ql, c.qr, got, c.want)
		}
	}
}

func TestBurgersStepFluxesMatchesStep(t *testing.T) {
	mk := func() *grid.Patch {
		p := grid.NewPatch(geom.UnitCube(8), 0, 1, FieldQ)
		p.FillFunc(FieldQ, func(i geom.Index) float64 {
			return math.Sin(float64(i[0]+2*i[1])) * 0.7
		})
		periodicFill(p, FieldQ)
		return p
	}
	a, b := mk(), mk()
	k := Burgers3D{}
	k.Step(a, 0.01, 0.125)
	k.StepFluxes(b, 0.01, 0.125)
	for i, v := range a.Field(FieldQ) {
		if b.Field(FieldQ)[i] != v {
			t.Fatal("StepFluxes diverges from Step")
		}
	}
}
