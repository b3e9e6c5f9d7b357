package workload

import (
	"math"
	"reflect"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
)

func flagCount(d Driver, level int, t float64, box geom.Box) int {
	f := cluster.NewFlagField(box)
	d.Flag(level, t, f)
	return f.Count()
}

func TestShockPoolPlaneMoves(t *testing.T) {
	s := NewShockPool3D(16, 2)
	dom := geom.UnitCube(16)
	f0 := cluster.NewFlagField(dom)
	s.Flag(0, 0, f0)
	f1 := cluster.NewFlagField(dom)
	s.Flag(0, 1.0, f1)
	if f0.Count() == 0 || f1.Count() == 0 {
		t.Fatal("plane should flag cells at both times")
	}
	// The flagged sets must differ (the plane moved).
	same := true
	dom.ForEach(func(i geom.Index) {
		if flagged(f0, i) != flagged(f1, i) {
			same = false
		}
	})
	if same {
		t.Error("flags did not move with the shock plane")
	}
	// Flagged centroid must advance along +x (dominant normal).
	if cx(f0) >= cx(f1) {
		t.Errorf("plane centroid did not advance: %v -> %v", cx(f0), cx(f1))
	}
}

func cx(f *cluster.FlagField) float64 {
	var sum float64
	n := 0
	f.Box.ForEach(func(i geom.Index) {
		if flagged(f, i) {
			sum += float64(i[0])
			n++
		}
	})
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

func TestShockPoolTiltedPlane(t *testing.T) {
	// A tilted plane flags different x positions at different y —
	// the paper's "slightly tilted with respect to the edges".
	s := NewShockPool3D(32, 2)
	f := cluster.NewFlagField(geom.UnitCube(32))
	s.Flag(0, 0.5, f)
	minX, maxX := 1000, -1000
	f.Box.ForEach(func(i geom.Index) {
		if flagged(f, i) {
			if i[0] < minX {
				minX = i[0]
			}
			if i[0] > maxX {
				maxX = i[0]
			}
		}
	})
	if maxX-minX < 3 {
		t.Errorf("tilt too small to be visible: x range [%d,%d]", minX, maxX)
	}
}

func TestShockPoolFinerLevelsThinner(t *testing.T) {
	s := NewShockPool3D(16, 2)
	c0 := flagCount(s, 0, 0.5, geom.UnitCube(16))
	c1 := flagCount(s, 1, 0.5, geom.UnitCube(32))
	if c0 == 0 || c1 == 0 {
		t.Fatal("both levels should flag")
	}
	// Level 1 has 8x the cells but half the capture width; its flag
	// count must be well under 8x level 0's.
	if float64(c1) >= 6*float64(c0) {
		t.Errorf("fine level not thinner: %d vs %d", c0, c1)
	}
}

func TestShockPoolInitialConditionStep(t *testing.T) {
	s := NewShockPool3D(16, 2)
	p := grid.NewPatch(geom.UnitCube(16), 0, 1, s.Fields()...)
	s.InitialCondition(p, 1.0/16)
	// Behind the plane q=1, ahead q=0.
	if got := p.At(solver.FieldQ, geom.Index{0, 0, 0}); got != 1 {
		t.Errorf("behind shock q = %v", got)
	}
	if got := p.At(solver.FieldQ, geom.Index{15, 15, 15}); got != 0 {
		t.Errorf("ahead of shock q = %v", got)
	}
}

func TestShockPoolMetadata(t *testing.T) {
	s := NewShockPool3D(16, 2)
	if s.Name() != "ShockPool3D" || len(s.Kernels()) != 1 || s.Particles() != nil {
		t.Error("metadata wrong")
	}
	if s.Dt0() <= 0 || math.IsInf(s.Dt0(), 0) {
		t.Errorf("Dt0 = %v", s.Dt0())
	}
	if FlopsPerCell(s) != 18 {
		t.Errorf("FlopsPerCell = %v", FlopsPerCell(s))
	}
}

func TestAMR64ClustersScattered(t *testing.T) {
	a := NewAMR64(32, 2, 7)
	if len(a.centers) != 8 {
		t.Fatalf("centers = %d", len(a.centers))
	}
	f := cluster.NewFlagField(geom.UnitCube(32))
	a.Flag(0, 0, f)
	if f.Count() == 0 {
		t.Fatal("no flags at t=0")
	}
	// Flags must be spread: bounding box of flags should cover most of
	// the domain (clusters are random across the whole volume).
	bb := flagBounds(f)
	if bb.NumCells() < 32*32*32/4 {
		t.Errorf("clusters not scattered: bounding %v", bb)
	}
}

func TestAMR64RefinementGrows(t *testing.T) {
	a := NewAMR64(32, 2, 7)
	early := flagCount(a, 0, 0, geom.UnitCube(32))
	late := flagCount(a, 0, 0.4, geom.UnitCube(32))
	if late <= early {
		t.Errorf("refined region should grow with time: %d -> %d", early, late)
	}
	// And saturate at MaxRadius.
	cap1 := flagCount(a, 0, 100, geom.UnitCube(32))
	cap2 := flagCount(a, 0, 200, geom.UnitCube(32))
	if cap1 != cap2 {
		t.Errorf("radius should saturate: %d vs %d", cap1, cap2)
	}
}

func TestAMR64Determinism(t *testing.T) {
	a1 := NewAMR64(32, 2, 11)
	a2 := NewAMR64(32, 2, 11)
	for i, c := range a1.centers {
		if c != a2.centers[i] {
			t.Fatal("same seed must give same centers")
		}
	}
	b := NewAMR64(32, 2, 12)
	diff := false
	for i, c := range a1.centers {
		if c != b.centers[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different centers")
	}
}

func TestAMR64ParticlesNearCenters(t *testing.T) {
	a := NewAMR64(32, 2, 7)
	ps := a.Particles()
	if ps == nil || len(ps.Particles) != a.NumParticles {
		t.Fatal("particle population missing")
	}
	// Most particles start within 0.1 of some centre.
	near := 0
	for _, p := range ps.Particles {
		for _, c := range a.centers {
			if wrapDist2(p.Pos, c) < 0.1*0.1 {
				near++
				break
			}
		}
	}
	if float64(near) < 0.9*float64(len(ps.Particles)) {
		t.Errorf("only %d/%d particles near centres", near, len(ps.Particles))
	}
}

func TestAMR64FieldsAndKernels(t *testing.T) {
	a := NewAMR64(16, 2, 1)
	if len(a.Fields()) != 3 {
		t.Error("AMR64 needs q, phi, rho")
	}
	if len(a.Kernels()) != 2 {
		t.Error("AMR64 couples hyperbolic and elliptic kernels")
	}
	p := grid.NewPatch(geom.UnitCube(16), 0, 1, a.Fields()...)
	a.InitialCondition(p, 1.0/16)
	if p.Sum(solver.FieldRho) <= 0 {
		t.Error("density blobs missing")
	}
}

func TestUniformNeverFlags(t *testing.T) {
	u := &Uniform{N0: 8, Ref: 2}
	if flagCount(u, 0, 5, geom.UnitCube(8)) != 0 {
		t.Error("uniform driver must not flag")
	}
	if u.Dt0() <= 0 || u.Particles() != nil || u.Name() != "uniform" {
		t.Error("uniform metadata wrong")
	}
	p := grid.NewPatch(geom.UnitCube(4), 0, 1, u.Fields()...)
	u.InitialCondition(p, 0.25)
	if p.Sum(solver.FieldQ) != 64 {
		t.Error("uniform IC wrong")
	}
}

func TestStaticBlobCenteredAndStable(t *testing.T) {
	b := NewStaticBlob(16, 2)
	c1 := flagCount(b, 0, 0, geom.UnitCube(16))
	c2 := flagCount(b, 0, 9.5, geom.UnitCube(16))
	if c1 == 0 || c1 != c2 {
		t.Errorf("static blob must not change with time: %d vs %d", c1, c2)
	}
	f := cluster.NewFlagField(geom.UnitCube(16))
	b.Flag(0, 0, f)
	if !flagged(f, geom.Index{8, 8, 8}) {
		t.Error("domain centre must be flagged")
	}
	if flagged(f, geom.Index{0, 0, 0}) {
		t.Error("corner must not be flagged")
	}
	p := grid.NewPatch(geom.UnitCube(16), 0, 1, b.Fields()...)
	b.InitialCondition(p, 1.0/16)
	if p.At(solver.FieldQ, geom.Index{8, 8, 8}) != 1 {
		t.Error("blob IC wrong")
	}
}

func TestCellCenter(t *testing.T) {
	// Level 0, 8 cells: cell 0 centre at 1/16.
	x := cellCenter(geom.Index{0, 0, 0}, 0, 8, 2)
	if math.Abs(x[0]-1.0/16) > 1e-15 {
		t.Errorf("cellCenter = %v", x)
	}
	// Level 1 halves dx.
	x1 := cellCenter(geom.Index{0, 0, 0}, 1, 8, 2)
	if math.Abs(x1[0]-1.0/32) > 1e-15 {
		t.Errorf("level-1 cellCenter = %v", x1)
	}
}

func TestWrapDist2(t *testing.T) {
	a := [3]float64{0.05, 0.5, 0.5}
	b := [3]float64{0.95, 0.5, 0.5}
	if d := wrapDist2(a, b); math.Abs(d-0.01) > 1e-12 {
		t.Errorf("wrap distance = %v, want 0.01", d)
	}
}

func TestSedovFrontExpands(t *testing.T) {
	s := NewSedovBlast(32, 2)
	early := flagCount(s, 0, 0.05, geom.UnitCube(32))
	late := flagCount(s, 0, 0.8, geom.UnitCube(32))
	if early == 0 || late == 0 {
		t.Fatal("front must flag at both times")
	}
	// The shell area grows with the radius.
	if late <= early {
		t.Errorf("front should grow: %d -> %d flags", early, late)
	}
	if s.Radius(0.5) <= s.Radius(0.1) {
		t.Error("radius not growing")
	}
}

func TestSedovSymmetricAboutCenter(t *testing.T) {
	s := NewSedovBlast(16, 2)
	f := cluster.NewFlagField(geom.UnitCube(16))
	s.Flag(0, 0.3, f)
	// Mirror symmetry through the centre plane.
	mismatches := 0
	geom.UnitCube(16).ForEach(func(i geom.Index) {
		m := geom.Index{15 - i[0], i[1], i[2]}
		if flagged(f, i) != flagged(f, m) {
			mismatches++
		}
	})
	if mismatches != 0 {
		t.Errorf("front not mirror-symmetric: %d mismatches", mismatches)
	}
}

func TestSedovMetadataAndIC(t *testing.T) {
	s := NewSedovBlast(16, 2)
	if s.Name() != "SedovBlast" || s.Particles() != nil || s.DomainN() != 16 || s.RefFactor() != 2 {
		t.Error("metadata wrong")
	}
	if len(s.Kernels()) != 1 || s.Kernels()[0].Name() != "burgers3d-godunov" {
		t.Error("Sedov should use the nonlinear Burgers kernel")
	}
	p := grid.NewPatch(geom.UnitCube(16), 0, 1, s.Fields()...)
	s.InitialCondition(p, 1.0/16)
	// Peak at the centre, decaying outward.
	if p.At(solver.FieldQ, geom.Index{8, 8, 8}) <= p.At(solver.FieldQ, geom.Index{0, 0, 0}) {
		t.Error("pulse must peak at the centre")
	}
	if s.Dt0() <= 0 || math.IsInf(s.Dt0(), 0) {
		t.Errorf("Dt0 = %v", s.Dt0())
	}
}

// TestByName: every dataset name resolves to the driver its constructor
// builds, sized and seeded as asked; anything else is an error.
func TestByName(t *testing.T) {
	want := map[string]Driver{
		"ShockPool3D": NewShockPool3D(16, 2),
		"AMR64":       NewAMR64(16, 2, 9),
		"SedovBlast":  NewSedovBlast(16, 2),
		"blob":        NewStaticBlob(16, 2),
		"uniform":     &Uniform{N0: 16, Ref: 2},
	}
	for name, w := range want {
		d, err := ByName(name, 16, 9)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if !reflect.DeepEqual(d, w) {
			t.Errorf("ByName(%q) = %+v, want %+v", name, d, w)
		}
	}
	for _, name := range []string{"", "shockpool3d", "static-blob", "AMR65"} {
		if d, err := ByName(name, 16, 9); err == nil {
			t.Errorf("ByName(%q) = %T, want an error", name, d)
		}
	}
}
