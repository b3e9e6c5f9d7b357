package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
)

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
	cell := func(i geom.Index, dx float64) [3]float64 {
		return [3]float64{(float64(i[0]) + 0.5) * dx, (float64(i[1]) + 0.5) * dx, (float64(i[2]) + 0.5) * dx}
	}
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
		dx := 1.0 / (float64(d.N0) * math.Pow(float64(d.Ref), float64(level)))
		setWhere(f, func(i geom.Index) bool {
			x := cell(i, dx)
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
		dx := 1.0 / (float64(d.N0) * math.Pow(float64(d.Ref), float64(level)))
		setWhere(f, func(i geom.Index) bool {
			return math.Abs(math.Sqrt(dist2c(cell(i, dx), d.Center))-r) < w
		})
	case *StaticBlob:
		r := d.Radius / math.Pow(2, float64(level))
		r2 := r * r
		dx := 1.0 / (float64(d.N0) * math.Pow(float64(d.Ref), float64(level)))
		setWhere(f, func(i geom.Index) bool { return wrapDist2(cell(i, dx), d.Center) < r2 })
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
