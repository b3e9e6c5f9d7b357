package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
)

// cellCenter returns the physical coordinates (domain [0,1)^3) of the
// centre of cell i on the given level, for a level-0 domain of n0
// cells per side refined by factor ref: the per-cell form of center,
// with dx taken the way the engine takes it.
func cellCenter(i geom.Index, level, n0, ref int) [3]float64 {
	dx := 1.0 / (float64(n0) * math.Pow(float64(ref), float64(level)))
	var x [3]float64
	for d := range x {
		x[d] = float64((float64(i[d]) + 0.5) * dx)
	}
	return x
}

// wrapDist2 is the squared distance on the unit periodic torus: x term
// first, then y, then z, each product rounded before it is added. The
// drivers take the same sum a row at a time, so a hoisted row must
// give the bits this function does.
func wrapDist2(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		v := wrap1(a[d], b[d])
		s += float64(v * v)
	}
	return s
}

// dist2c is the plain (non-periodic) squared distance, summed like
// wrapDist2.
func dist2c(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		v := a[d] - b[d]
		s += float64(v * v)
	}
	return s
}

// planeDistance is the signed distance of a physical point from
// ShockPool3D's plane at time t, as one sum.
func planeDistance(s *ShockPool3D, x [3]float64, t float64) float64 {
	n := s.unitNormal()
	return float64(x[0]*n[0]) + float64(x[1]*n[1]) + float64(x[2]*n[2]) - s.planePos(t)
}

// setWhere flags every cell of f for which pred holds: the per-cell
// form the drivers' Flag methods had before they went row-wise.
func setWhere(f *cluster.FlagField, pred func(geom.Index) bool) {
	f.SetRows(f.Box, func(row cluster.Row, x0, y, z int) {
		for k := range row.Len() {
			if pred(geom.Index{x0 + k, y, z}) {
				row.Set(k)
			}
		}
	})
}

// flagged reports whether cell i of f is flagged.
func flagged(f *cluster.FlagField, i geom.Index) bool {
	return f.CountIn(geom.Box{Lo: i, Hi: i}) == 1
}

// flagBounds is the bounding box of f's flags.
func flagBounds(f *cluster.FlagField) geom.Box {
	bb := geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{-1, -1, -1}}
	f.Box.ForEach(func(i geom.Index) {
		if flagged(f, i) {
			bb = bb.Union(geom.Box{Lo: i, Hi: i})
		}
	})
	return bb
}

// flagsOf copies f's flags out in offset order.
func flagsOf(f *cluster.FlagField) []bool {
	var out []bool
	f.Box.ForEach(func(i geom.Index) { out = append(out, flagged(f, i)) })
	return out
}

// refFlag is each driver's Flag as one predicate per cell, every sum
// written the way the row-wise form must reproduce it.
func refFlag(d Driver, level int, t float64, f *cluster.FlagField) {
	switch d := d.(type) {
	case *ShockPool3D:
		w := d.Width / math.Pow(2, float64(level))
		dx := 1.0 / (float64(d.N0) * math.Pow(float64(d.Ref), float64(level)))
		n := d.unitNormal()
		pos := d.planePos(t)
		setWhere(f, func(i geom.Index) bool {
			dist := float64((float64(i[0])+0.5)*dx*n[0]) +
				float64((float64(i[1])+0.5)*dx*n[1]) +
				float64((float64(i[2])+0.5)*dx*n[2]) - pos
			return math.Abs(dist) < w
		})
	case *AMR64:
		r := d.radius(level, t)
		r2 := r * r
		setWhere(f, func(i geom.Index) bool {
			x := cellCenter(i, level, d.N0, d.Ref)
			for _, c := range d.centers {
				if wrapDist2(x, c) < r2 {
					return true
				}
			}
			return false
		})
	case *SedovBlast:
		r := d.Radius(t)
		w := d.Width / math.Pow(2, float64(level))
		setWhere(f, func(i geom.Index) bool {
			return math.Abs(math.Sqrt(dist2c(cellCenter(i, level, d.N0, d.Ref), d.Center))-r) < w
		})
	case *StaticBlob:
		r := d.Radius / math.Pow(2, float64(level))
		r2 := r * r
		setWhere(f, func(i geom.Index) bool { return wrapDist2(cellCenter(i, level, d.N0, d.Ref), d.Center) < r2 })
	default:
		panic(fmt.Sprintf("refFlag: no predicate for %T", d))
	}
}

// focus is a physical point on or near what the driver refines at
// time t, so that a sub-box placed around it holds flags.
func focus(d Driver, t float64, rng *rand.Rand) [3]float64 {
	switch d := d.(type) {
	case *ShockPool3D:
		n := d.unitNormal()
		y, z := rng.Float64(), rng.Float64()
		return [3]float64{(d.planePos(t) - y*n[1] - z*n[2]) / n[0], y, z}
	case *AMR64:
		return d.centers[rng.Intn(len(d.centers))]
	case *SedovBlast:
		return [3]float64{d.Center[0] + d.Radius(t), d.Center[1], d.Center[2]}
	case *StaticBlob:
		return d.Center
	case *Uniform:
		return [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	panic("focus: unknown driver")
}

// sameFlagging flags box at level and time tm with the driver's Flag
// and with its per-cell predicate, fails unless they set the same
// cells, and returns how many they set.
func sameFlagging(t *testing.T, d Driver, n0, level int, tm float64, box geom.Box) int {
	t.Helper()
	got, want := cluster.NewFlagField(box), cluster.NewFlagField(box)
	d.Flag(level, tm, got)
	refFlag(d, level, tm, want)
	if got.Count() != want.Count() || !slices.Equal(flagsOf(got), flagsOf(want)) {
		t.Fatalf("%s N0=%d level %d t=%g box %v: row-wise Flag set %d cells, predicate %d, or different ones",
			d.Name(), n0, level, tm, box, got.Count(), want.Count())
	}
	return want.Count()
}

// TestFlagMatchesPredicate compares every driver's row-wise Flag with
// its per-cell predicate, cell for cell, on sub-boxes of the level's
// index space that are not anchored at the origin, and on boxes 100
// cells wide from x = -37, whose rows cross a word boundary at x = 27.
func TestFlagMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	times := []float64{0, 0.05, 0.3, 0.77, 1.6, 3.1}
	for _, n0 := range []int{16, 24, 32, 48} {
		drivers := []Driver{NewShockPool3D(n0, 2), NewAMR64(n0, 2, int64(n0)), NewSedovBlast(n0, 2), NewStaticBlob(n0, 2)}
		for _, d := range drivers {
			total, wide := 0, 0
			for level := 0; level <= 2; level++ {
				cells := float64(n0 * (1 << level))
				for _, tm := range times {
					for rep := 0; rep < 3; rep++ {
						at := focus(d, tm, rng)
						var lo, shape geom.Index
						for k := range lo {
							shape[k] = 1 + rng.Intn(20)
							lo[k] = int(at[k]*cells) - rng.Intn(shape[k]+1)
						}
						box := geom.BoxFromShape(lo, shape)
						if box.Lo == (geom.Index{}) {
							box.Lo[0], box.Hi[0] = 1, box.Hi[0]+1
						}
						total += sameFlagging(t, d, n0, level, tm, box)
					}
					at := focus(d, tm, rng)
					lo := geom.Index{-37, int(at[1]*cells) - 3, int(at[2]*cells) - 3}
					wide += sameFlagging(t, d, n0, level, tm, geom.BoxFromShape(lo, geom.Index{100, 7, 7}))
				}
			}
			if total == 0 || wide == 0 {
				t.Errorf("%s N0=%d: sub-boxes held %d flags, wide boxes %d; a comparison checked nothing", d.Name(), n0, total, wide)
			}
		}
	}
}

// TestFlagOnlyAddsFlags: a driver flags into a field that may hold
// flags already (RegridAll never does this, FlagWhereGradient callers
// may) and must leave them set.
func TestFlagOnlyAddsFlags(t *testing.T) {
	for _, d := range []Driver{NewShockPool3D(16, 2), NewAMR64(16, 2, 1), NewSedovBlast(16, 2), NewStaticBlob(16, 2)} {
		f := cluster.NewFlagField(geom.UnitCube(16))
		setWhere(f, func(i geom.Index) bool { return i[1] == 0 })
		d.Flag(0, 0.2, f)
		if got := f.CountIn(geom.BoxFromShape(geom.Index{}, geom.Index{16, 1, 16})); got != 256 {
			t.Errorf("%s cleared earlier flags: %d of 256 left on the y=0 face", d.Name(), got)
		}
	}
}

// refInitialCondition is each driver's InitialCondition one cell at a
// time, the way it was written before it went row-wise: a cellCenter
// per cell and one distance sum per cell.
func refInitialCondition(d Driver, p *grid.Patch) {
	level := p.Level
	n0, ref := d.DomainN(), d.RefFactor()
	step := func(inside func(x [3]float64) bool) func(geom.Index) float64 {
		return func(i geom.Index) float64 {
			if inside(cellCenter(i, level, n0, ref)) {
				return 1
			}
			return 0
		}
	}
	switch d := d.(type) {
	case *ShockPool3D:
		p.FillFunc(solver.FieldQ, step(func(x [3]float64) bool { return planeDistance(d, x, 0) < 0 }))
	case *AMR64:
		p.FillFunc(solver.FieldRho, func(i geom.Index) float64 {
			x := cellCenter(i, level, d.N0, d.Ref)
			var rho float64
			for _, c := range d.centers {
				rho += math.Exp(-wrapDist2(x, c) / (2 * d.BaseRadius * d.BaseRadius))
			}
			return rho
		})
		p.FillFunc(solver.FieldPhi, func(geom.Index) float64 { return 0 })
		p.FillFunc(solver.FieldQ, func(geom.Index) float64 { return 1 })
	case *SedovBlast:
		w2 := d.R0 * d.R0
		p.FillFunc(solver.FieldQ, func(i geom.Index) float64 {
			return d.Amplitude * math.Exp(-dist2c(cellCenter(i, level, d.N0, d.Ref), d.Center)/(2*w2))
		})
	case *StaticBlob:
		p.FillFunc(solver.FieldQ, step(func(x [3]float64) bool { return wrapDist2(x, d.Center) < d.Radius*d.Radius }))
	case *Uniform:
		p.FillFunc(solver.FieldQ, func(geom.Index) float64 { return 1 })
	default:
		panic(fmt.Sprintf("refInitialCondition: no reference for %T", d))
	}
}

// sameInitialCondition writes box's patch (ghost width ng, on level)
// with the driver's InitialCondition and with the per-cell reference,
// fails unless every field's bits agree on every stored cell, and
// returns how many fields did not hold one value throughout.
func sameInitialCondition(t *testing.T, d Driver, level, ng int, box geom.Box) int {
	t.Helper()
	got := grid.NewPatch(box, level, ng, d.Fields()...)
	want := grid.NewPatch(box, level, ng, d.Fields()...)
	// Both start from garbage, so a cell that neither writes differs.
	for _, f := range d.Fields() {
		got.FillFunc(f, func(geom.Index) float64 { return math.NaN() })
		want.FillFunc(f, func(geom.Index) float64 { return -1 })
	}
	d.InitialCondition(got, 1.0/(float64(d.DomainN())*math.Pow(float64(d.RefFactor()), float64(level))))
	refInitialCondition(d, want)
	varied := 0
	for _, f := range d.Fields() {
		g, w := got.Field(f), want.Field(f)
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%s N0=%d level %d box %v ghosts %d field %s offset %d: row kernel wrote %v (%#x), per-cell %v (%#x)",
					d.Name(), d.DomainN(), level, box, ng, f, k, g[k], math.Float64bits(g[k]), w[k], math.Float64bits(w[k]))
			}
		}
		if slices.Min(w) != slices.Max(w) {
			varied++
		}
	}
	return varied
}

// TestInitialConditionMatchesPerCell compares every driver's row-wise
// InitialCondition with its per-cell reference, bit for bit over the
// grown box (ghosts included), on levels 0-2: boxes with negative Lo
// and odd extents at the domain's low corner, boxes that overhang its
// high corner, and a seeded sweep of boxes around what each driver
// refines.
func TestInitialConditionMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n0 := range []int{16, 24, 48} {
		drivers := []Driver{NewShockPool3D(n0, 2), NewAMR64(n0, 2, int64(n0)), NewSedovBlast(n0, 2),
			NewStaticBlob(n0, 2), &Uniform{N0: n0, Ref: 2}}
		for _, d := range drivers {
			varied := 0
			for level := 0; level <= 2; level++ {
				cells := n0 << level
				varied += sameInitialCondition(t, d, level, 1, geom.BoxFromShape(geom.Index{-3, -1, -2}, geom.Index{7, 5, 9}))
				varied += sameInitialCondition(t, d, level, 2, geom.BoxFromShape(geom.Index{cells - 5, cells - 3, cells - 1}, geom.Index{9, 3, 5}))
				for rep := 0; rep < 6; rep++ {
					at := focus(d, 0, rng)
					var lo, shape geom.Index
					for k := range lo {
						shape[k] = 1 + rng.Intn(13)
						lo[k] = int(at[k]*float64(cells)) - rng.Intn(shape[k]+1)
					}
					varied += sameInitialCondition(t, d, level, rng.Intn(3), geom.BoxFromShape(lo, shape))
				}
			}
			if _, flat := d.(*Uniform); !flat && varied == 0 {
				t.Errorf("%s N0=%d: every box held one value, so the comparison checked a constant", d.Name(), n0)
			}
		}
	}
}
