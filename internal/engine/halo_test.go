package engine

import (
	"fmt"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// poison is written into edge and corner ghosts, and at regrid into
// the face ghosts the fill writes too. It is finite, so a read through
// a comparison (a flag test, a limiter branch) flips its outcome, where
// NaN compares false; a read through arithmetic overflows or swamps the
// cell it reaches.
const poison = 1e300

// edgePoison writes poison into the edge and corner ghosts of every
// patch (the ghost cells with two or three coordinates outside the
// patch's box) at each structural phase, and checks, at the next phase
// and after every level-0 step, that each cell it poisoned still holds
// it. At regrid it poisons every face ghost the fill writes as well,
// which the next fill must overwrite before anything reads one.
type edgePoison struct {
	poisoned map[*grid.Patch]bool
	checked  int    // edge and corner cells found still poisoned
	failure  string // the first poisoned cell found rewritten
}

// forGhosts calls fn with every ghost i of p, how many of its
// coordinates lie outside the patch's box (1 for a face ghost, 2 or 3
// for an edge or corner one), and its storage and offset in every field.
func forGhosts(p *grid.Patch, fn func(i geom.Index, out int, f []float64, k int)) {
	g := p.Grown()
	g.ForEach(func(i geom.Index) {
		out := 0
		for d := range geom.Dims {
			if i[d] < p.Box.Lo[d] || i[d] > p.Box.Hi[d] {
				out++
			}
		}
		if out > 0 {
			for _, name := range p.FieldNames() {
				fn(i, out, p.Field(name), g.Offset(i))
			}
		}
	})
}

// filled reports whether the ghost fill writes face ghost i of a
// level-l grid: the domain boundary, a sibling or the coarser level
// covers it. A fine grid at the edge of the coarser level's union has
// face ghosts that none covers; nothing writes them, child init
// included, so they keep NewPatch's zero.
func filled(h *amr.Hierarchy, l int, i geom.Index) bool {
	if !h.DomainAt(l).Contains(i) {
		return true
	}
	for _, g := range h.Grids(l) {
		if g.Box.Contains(i) {
			return true
		}
	}
	for _, c := range h.Grids(l - 1) {
		if c.Box.Refine(h.RefFactor).Contains(i) {
			return true
		}
	}
	return false
}

// verify checks every live patch poisoned at the last phase.
func (e *edgePoison) verify(h *amr.Hierarchy, when string) {
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			if !e.poisoned[g.Patch] {
				continue
			}
			forGhosts(g.Patch, func(_ geom.Index, out int, f []float64, k int) {
				switch {
				case out < 2:
				case f[k] == poison:
					e.checked++
				case e.failure == "":
					e.failure = fmt.Sprintf("%s: level %d grid %v: edge or corner ghost %v was rewritten to %v",
						when, l, g.Box, g.Patch.Grown().IndexAt(k), f[k])
				}
			})
		}
	}
}

// phase is the Options.Invariants hook: check, then poison afresh.
func (e *edgePoison) phase(pi *PhaseInfo) {
	h := pi.Runner.Hierarchy()
	e.verify(h, fmt.Sprintf("step %d before the %v hook", pi.Step, pi.Phase))
	e.poisoned = map[*grid.Patch]bool{}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			forGhosts(g.Patch, func(i geom.Index, out int, f []float64, k int) {
				if out >= 2 || out == 1 && pi.Phase == PhaseRegrid && filled(h, l, i) {
					f[k] = poison
				}
			})
			e.poisoned[g.Patch] = true
		}
	}
}

// TestNoKernelReadsEdgeOrCornerGhosts is the evidence for face-only
// ghost fills: with every edge and corner ghost poisoned at each
// structural phase, every kernel, the refluxing, the gradient flagger
// and the particle push give a bit-identical Result and bit-identical
// interiors and face ghosts, so none of them reads such a cell; and
// the poison survives every fill, on shared memory and over the tcp
// wire, so no fill writes one. Every face ghost the fill writes is
// poisoned at regrid too, so nothing reads one between child init and
// the next fill: the fill owns every ghost.
func TestNoKernelReadsEdgeOrCornerGhosts(t *testing.T) {
	shock := func() workload.Driver { return workload.NewShockPool3D(16, 2) }
	rows := []struct {
		name   string
		driver func() workload.Driver
		opt    Options
	}{
		{"ShockPool3D", shock, Options{}},
		{"ShockPool3D tcp", shock, Options{UseMPX: true, Transport: TransportTCP}},
		{"SedovBlast reflux", func() workload.Driver { return workload.NewSedovBlast(16, 2) }, Options{Reflux: true}},
		{"AMR64", func() workload.Driver { return workload.NewAMR64(16, 2, 5) }, Options{}},
		{"ShockPool3D gradient", shock, Options{GradientField: solver.FieldQ, GradientThreshold: 0.3}},
	}
	for _, row := range rows {
		run := func(e *edgePoison) (*metrics.Result, *Runner) {
			opt := row.opt
			opt.Steps, opt.MaxLevel, opt.WithData = 4, 2, true
			if e != nil {
				opt.Invariants = e.phase
				opt.AfterStep = func(s int, r *Runner) { e.verify(r.Hierarchy(), fmt.Sprintf("after step %d", s)) }
			}
			r := New(machine.WanPair(2, nil), row.driver(), opt)
			return r.Run(), r
		}
		e := &edgePoison{}
		want, plain := run(nil)
		got, poisoned := run(e)
		if e.failure != "" {
			t.Errorf("%s: %s", row.name, e.failure)
		}
		if e.checked == 0 {
			t.Errorf("%s: no poisoned cell was ever checked", row.name)
		}
		if want.Identity() != got.Identity() {
			t.Errorf("%s: poisoned edges changed the Result:\n%s\n%s", row.name, want.Identity(), got.Identity())
		}
		for l := 0; l <= plain.Hierarchy().MaxLevel; l++ {
			ga, gb := plain.Hierarchy().Grids(l), poisoned.Hierarchy().Grids(l)
			if len(ga) != len(gb) {
				t.Fatalf("%s: level %d has %d grids, %d with poisoned edges", row.name, l, len(ga), len(gb))
			}
			for i := range ga {
				if f, k, ok := grid.StencilDiff(ga[i].Patch, gb[i].Patch); ok {
					t.Fatalf("%s: level %d grid %v field %s cell %v: %v, %v with poisoned edges", row.name, l, ga[i].Box, f,
						ga[i].Patch.Grown().IndexAt(k), ga[i].Patch.Field(f)[k], gb[i].Patch.Field(f)[k])
				}
			}
		}
	}
}
