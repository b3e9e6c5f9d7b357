// Package grid provides structured grid patches: rectangular blocks of
// cell-centred field data with ghost zones, plus the inter-patch
// transfer operators SAMR needs (copy-on-intersection, restriction
// from fine to coarse, prolongation from coarse to fine).
//
// A Patch stores one or more named fields over its grown (interior +
// ghost) box in x-fastest linear order. All operators are written
// against geom.Box index arithmetic so they work for any level and any
// patch placement.
package grid

import (
	"fmt"
	"math"
	"slices"

	"samrdlb/internal/geom"
)

// Patch is a rectangular block of cell-centred data on one refinement
// level. Fields are stored over the grown box (interior plus NGhost
// ghost cells on every side).
type Patch struct {
	// Box is the interior region owned by this patch, in level index
	// space.
	Box geom.Box
	// Level is the refinement level the patch lives on (0 = coarsest).
	Level int
	// NGhost is the ghost-zone width on each side.
	NGhost int

	// names are the field names, sorted; data[k] is the storage of
	// names[k].
	names []string
	data  [][]float64
}

// NewPatch allocates a patch with the given interior box, level, ghost
// width, and named fields (all zero-initialised).
func NewPatch(box geom.Box, level, nghost int, fieldNames ...string) *Patch {
	if box.Empty() {
		panic(fmt.Sprintf("grid.NewPatch: empty box %v", box))
	}
	if nghost < 0 {
		panic("grid.NewPatch: negative ghost width")
	}
	names := slices.Clone(fieldNames)
	slices.Sort(names)
	n := int(box.Grow(nghost).NumCells())
	data := make([][]float64, len(names))
	for k := range data {
		data[k] = make([]float64, n)
	}
	return PatchOver(box, level, nghost, names, data)
}

// PatchOver returns a patch whose k-th field, names[k], is stored in
// data[k], one value per cell of the grown box; names must be sorted
// and distinct. The patch keeps both slices and writes neither's
// header, so patches of one field list may share names, and data may
// be the Storage of a patch no longer in use.
func PatchOver(box geom.Box, level, nghost int, names []string, data [][]float64) *Patch {
	if box.Empty() {
		panic(fmt.Sprintf("grid.PatchOver: empty box %v", box))
	}
	if nghost < 0 {
		panic("grid.PatchOver: negative ghost width")
	}
	for k := 1; k < len(names); k++ {
		if names[k] <= names[k-1] {
			panic("grid.PatchOver: field names not sorted and distinct at " + names[k])
		}
	}
	if len(data) != len(names) {
		panic(fmt.Sprintf("grid.PatchOver: %d fields, %d stores", len(names), len(data)))
	}
	n := int(box.Grow(nghost).NumCells())
	for k, f := range data {
		if len(f) != n {
			panic(fmt.Sprintf("grid.PatchOver: field %s holds %d values, the grown box %d", names[k], len(f), n))
		}
	}
	return &Patch{Box: box, Level: level, NGhost: nghost, names: names, data: data}
}

// Storage returns the patch's field storage in FieldNames order, for a
// later PatchOver to reuse once nothing reads this patch any more.
func (p *Patch) Storage() [][]float64 { return p.data }

// Grown returns the interior box expanded by the ghost width — the
// region actually backed by storage.
func (p *Patch) Grown() geom.Box { return p.Box.Grow(p.NGhost) }

// FieldNames returns the patch's field names in sorted order.
func (p *Patch) FieldNames() []string {
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

// Field returns the raw storage for a named field (over the grown
// box). It panics on unknown names: field sets are fixed at
// construction and a miss is a programming error.
func (p *Patch) Field(name string) []float64 {
	k := slices.Index(p.names, name)
	if k < 0 {
		panic("grid: unknown field " + name)
	}
	return p.data[k]
}

// FieldAt returns the storage of the k-th field in FieldNames order.
// Patches built with the same field names agree on k, so a caller
// walking two patches field by field needs no name lookups.
func (p *Patch) FieldAt(k int) []float64 { return p.data[k] }

// HasField reports whether the patch carries the named field.
func (p *Patch) HasField(name string) bool {
	return slices.Contains(p.names, name)
}

// At returns field value at cell i (which must lie in the grown box).
func (p *Patch) At(name string, i geom.Index) float64 {
	return p.Field(name)[p.Grown().Offset(i)]
}

// Set stores v at cell i of the named field.
func (p *Patch) Set(name string, i geom.Index, v float64) {
	p.Field(name)[p.Grown().Offset(i)] = v
}

// FillConstant sets every cell (including ghosts) of the field to v.
func (p *Patch) FillConstant(name string, v float64) {
	f := p.Field(name)
	for i := range f {
		f[i] = v
	}
}

// FillRows calls fn once per x-row of the grown box, in storage order,
// with the row's storage of the named field: row[k] is cell
// (x0+k, y, z). It is the write side of cluster.FlagField.SetRows, and
// the way a driver writes its initial condition.
func (p *Patch) FillRows(name string, fn func(row []float64, x0, y, z int)) {
	f := p.Field(name)
	g := p.Grown()
	n := g.Hi[0] - g.Lo[0] + 1
	o := 0
	for z := g.Lo[2]; z <= g.Hi[2]; z++ {
		for y := g.Lo[1]; y <= g.Hi[1]; y++ {
			fn(f[o:o+n:o+n], g.Lo[0], y, z)
			o += n
		}
	}
}

// FillFunc evaluates fn at every cell of the grown box, in
// geom.Box.ForEach order, and stores the result in the named field.
func (p *Patch) FillFunc(name string, fn func(geom.Index) float64) {
	p.FillRows(name, func(row []float64, x0, y, z int) {
		for k := range row {
			row[k] = fn(geom.Index{x0 + k, y, z})
		}
	})
}

// interiorRows calls fn with each interior row of the named field, in
// geom.Box.ForEach order.
func (p *Patch) interiorRows(name string, fn func(row []float64)) {
	f := p.Field(name)
	rw := RowsOf(p.Grown(), p.Box)
	zo := rw.Base
	for z := 0; z < rw.NZ; z++ {
		o := zo
		for y := 0; y < rw.NY; y++ {
			fn(f[o : o+rw.N])
			o += rw.SY
		}
		zo += rw.SZ
	}
}

// Sum returns the sum of the field over the interior box only, added
// in geom.Box.ForEach order.
func (p *Patch) Sum(name string) float64 {
	var s float64
	p.interiorRows(name, func(row []float64) {
		for _, v := range row {
			s += v
		}
	})
	return s
}

// MaxAbs returns the maximum absolute value over the interior.
func (p *Patch) MaxAbs(name string) float64 {
	var m float64
	p.interiorRows(name, func(row []float64) {
		for _, v := range row {
			if v := math.Abs(v); v > m {
				m = v
			}
		}
	})
	return m
}

// Clone returns a deep copy of the patch.
func (p *Patch) Clone() *Patch {
	q := NewPatch(p.Box, p.Level, p.NGhost, p.names...)
	for k, f := range p.data {
		copy(q.data[k], f)
	}
	return q
}

// Rows describes how a region's x-rows lie in x-fastest storage over a
// containing box: the first row starts at Base, consecutive y rows are
// SY apart, consecutive z planes SZ apart, and the region spans N × NY
// × NZ cells. Every row loop — the transfer operators here and the
// solver kernels — derives it once per call and advances by the
// strides, so no row loop recomputes the storage shape.
type Rows struct {
	Base, SY, SZ int
	N, NY, NZ    int
}

// StencilDiff finds the first cell of a's interior or face slabs
// (geom.AppendFaces: the cells a 7-point stencil reads) whose value
// differs between a and b, two patches of one box and field list, and
// returns its field and storage offset. Edge and corner ghosts are not
// compared: the ghost fill leaves them as they were.
func StencilDiff(a, b *Patch) (field string, k int, ok bool) {
	g := a.Grown()
	boxes := geom.AppendFaces(geom.BoxList{a.Box}, a.Box, a.NGhost)
	for _, f := range a.FieldNames() {
		af, bf := a.Field(f), b.Field(f)
		for _, box := range boxes {
			rw := RowsOf(g, box)
			for z := range rw.NZ {
				for y := range rw.NY {
					o := rw.Base + y*rw.SY + z*rw.SZ
					for x := o; x < o+rw.N; x++ {
						if af[x] != bf[x] {
							return f, x, true
						}
					}
				}
			}
		}
	}
	return "", 0, false
}

// strides returns the y and z strides of x-fastest storage over b.
func strides(b geom.Box) (sy, sz int) {
	sy = b.Hi[0] - b.Lo[0] + 1
	return sy, sy * (b.Hi[1] - b.Lo[1] + 1)
}

// RowsOf lays region (non-empty, inside store) out over storage box
// store.
func RowsOf(store, region geom.Box) Rows {
	sy, sz := strides(store)
	return Rows{
		Base: (region.Lo[0] - store.Lo[0]) + sy*(region.Lo[1]-store.Lo[1]) + sz*(region.Lo[2]-store.Lo[2]),
		SY:   sy,
		SZ:   sz,
		N:    region.Hi[0] - region.Lo[0] + 1,
		NY:   region.Hi[1] - region.Lo[1] + 1,
		NZ:   region.Hi[2] - region.Lo[2] + 1,
	}
}

// CopyRegion copies the named field over region (in level index space)
// from src to dst. The region is clipped to both patches' grown boxes,
// so callers may pass the nominal overlap and let clipping handle
// ghosts. Both patches must be on the same level.
func CopyRegion(dst, src *Patch, name string, region geom.Box) {
	if dst.Level != src.Level {
		panic("grid.CopyRegion: level mismatch")
	}
	dg, sg := dst.Grown(), src.Grown()
	r := region.Intersect(dg).Intersect(sg)
	if r.Empty() {
		return
	}
	CopyRows(dst.Field(name), RowsOf(dg, r), src.Field(name), RowsOf(sg, r))
}

// CopyRows copies one region between two layouts resolved in advance:
// d lays it out over df, s's start and strides over sf (s's extents
// are not read). A planned fill computes both once and calls this per
// field, into a patch or a message's dense layout of the region. Rows
// of one cell (an x-face slab of a one-cell halo) are moved by a
// strided element loop instead of a copy call each.
func CopyRows(df []float64, d Rows, sf []float64, s Rows) {
	dz, sz := d.Base, s.Base
	if d.N == 1 {
		for z := 0; z < d.NZ; z++ {
			do, so := dz, sz
			for y := 0; y < d.NY; y++ {
				df[do] = sf[so]
				do += d.SY
				so += s.SY
			}
			dz += d.SZ
			sz += s.SZ
		}
		return
	}
	for z := 0; z < d.NZ; z++ {
		do, so := dz, sz
		for y := 0; y < d.NY; y++ {
			copy(df[do:do+d.N], sf[so:so+d.N])
			do += d.SY
			so += s.SY
		}
		dz += d.SZ
		sz += s.SZ
	}
}

// ClampRegion fills the named field over region by copying, for every
// cell, the value at the cell's per-component clamp into the src box —
// the outflow (nearest-interior) boundary condition. Each row splits
// into at most three segments: a constant run left of src, a straight
// copy of the clamped source row, and a constant run right of src.
// The region is clipped to the patch's grown box; src must be inside
// it.
func ClampRegion(p *Patch, name string, region, src geom.Box) {
	g := p.Grown()
	reg := region.Intersect(g)
	if reg.Empty() {
		return
	}
	f := p.Field(name)
	rw := RowsOf(g, reg)
	// Offset of cell (reg.Lo[0], y, z); x positions are relative to it.
	rowAt := func(y, z int) int { return rw.Base + rw.SY*(y-reg.Lo[1]) + rw.SZ*(z-reg.Lo[2]) }
	x0 := reg.Lo[0]
	for z := reg.Lo[2]; z <= reg.Hi[2]; z++ {
		sz := clampInt(z, src.Lo[2], src.Hi[2])
		for y := reg.Lo[1]; y <= reg.Hi[1]; y++ {
			do := rowAt(y, z)
			srow := rowAt(clampInt(y, src.Lo[1], src.Hi[1]), sz)
			// Left of src: constant value of src's low-x column.
			if x1 := min(reg.Hi[0], src.Lo[0]-1); x1 >= x0 {
				v := f[srow+src.Lo[0]-x0]
				for x := x0; x <= x1; x++ {
					f[do] = v
					do++
				}
			}
			// Inside src's x-range: copy the clamped row.
			m0, m1 := max(x0, src.Lo[0]), min(reg.Hi[0], src.Hi[0])
			if m0 <= m1 {
				so := srow + m0 - x0
				n := m1 - m0 + 1
				copy(f[do:do+n], f[so:so+n])
				do += n
			}
			// Right of src: constant value of src's high-x column.
			if xr := max(x0, src.Hi[0]+1); xr <= reg.Hi[0] {
				v := f[srow+src.Hi[0]-x0]
				for x := xr; x <= reg.Hi[0]; x++ {
					f[do] = v
					do++
				}
			}
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Restrict averages the fine patch's field over each coarse cell of
// the overlap and stores it into the coarse patch. The refinement
// factor r relates the two levels (fine.Level = coarse.Level+1).
func Restrict(coarse, fine *Patch, name string, r int) {
	if fine.Level != coarse.Level+1 {
		panic("grid.Restrict: fine must be exactly one level finer")
	}
	RestrictInto(coarse.Field(name), coarse.Grown(), coarse.Box, fine, name, r)
}

// RestrictInto is Restrict writing raw x-fastest storage cf over cbox
// instead of a coarse patch — a restriction headed for another rank is
// averaged straight into its message buffer. Only the coarse cells of
// region that the fine patch's interior covers are written. The loops
// are explicit but accumulate in exactly the closure-based original's
// order, so results are bit-identical to it.
func RestrictInto(cf []float64, cbox, region geom.Box, fine *Patch, name string, r int) {
	if int64(len(cf)) != cbox.NumCells() {
		// A mis-cut message: reading it would move the wrong cells.
		panic(fmt.Sprintf("grid.RestrictInto: %d values for storage box %v (%d cells)", len(cf), cbox, cbox.NumCells()))
	}
	fb := fine.Box
	overlap := region.Intersect(cbox).Intersect(fb.Coarsen(r))
	if overlap.Empty() {
		return
	}
	ff := fine.Field(name)
	fg := fine.Grown()
	fsy, fsz := strides(fg)
	c := RowsOf(cbox, overlap)
	inv := 1.0 / float64(r*r*r)
	r3 := float64(r * r * r)
	cz0 := c.Base
	for cz := overlap.Lo[2]; cz <= overlap.Hi[2]; cz++ {
		fz0, fz1 := max(cz*r, fb.Lo[2]), min(cz*r+r-1, fb.Hi[2])
		co := cz0
		for cy := overlap.Lo[1]; cy <= overlap.Hi[1]; cy++ {
			fy0, fy1 := max(cy*r, fb.Lo[1]), min(cy*r+r-1, fb.Hi[1])
			// Offset of fine cell (fg.Lo[0], fy0, fz0): the block's rows
			// start fx0-fg.Lo[0] past it.
			fblock := fsy*(fy0-fg.Lo[1]) + fsz*(fz0-fg.Lo[2]) - fg.Lo[0]
			planes := (fy1 - fy0 + 1) * (fz1 - fz0 + 1)
			for i, cx := 0, overlap.Lo[0]; cx <= overlap.Hi[0]; i, cx = i+1, cx+1 {
				fx0, fx1 := max(cx*r, fb.Lo[0]), min(cx*r+r-1, fb.Hi[0])
				n := fx1 - fx0 + 1
				var s float64
				zo := fblock + fx0
				for fz := fz0; fz <= fz1; fz++ {
					fo := zo
					for fy := fy0; fy <= fy1; fy++ {
						for _, v := range ff[fo : fo+n] {
							s += v
						}
						fo += fsy
					}
					zo += fsz
				}
				cf[co+i] = s * inv * r3 / float64(n*planes)
			}
			co += c.SY
		}
		cz0 += c.SZ
	}
}

// Prolong fills the fine patch's field over region (fine index space)
// by piecewise-constant injection from the coarse patch. Fine cells
// whose coarse parent falls outside the coarse patch's grown box are
// left untouched (handled by clipping the region to the coarse
// footprint up front, so the row loops need no per-cell containment
// check).
func Prolong(fine, coarse *Patch, name string, r int, region geom.Box) {
	if fine.Level != coarse.Level+1 {
		panic("grid.Prolong: fine must be exactly one level finer")
	}
	fg, cg := fine.Grown(), coarse.Grown()
	// f.FloorDiv(r) ∈ cg  ⟺  f ∈ cg.Refine(r), so the clip below is
	// exactly the per-cell containment test.
	reg := region.Intersect(fg).Intersect(cg.Refine(r))
	if reg.Empty() {
		return
	}
	ProlongRows(fine.Field(name), RowsOf(fg, reg), coarse.Field(name), RowsOf(cg, reg.Coarsen(r)), r, reg.Lo)
}

// ProlongRows is the injection kernel over layouts resolved in
// advance: f lays the fine region out over ff, c's start and strides
// place its coarse footprint (the region coarsened by r) in cf (c's
// extents are not read), and lo is the region's low corner, whose
// place inside its coarse cell says where the first run of each axis
// ends.
func ProlongRows(ff []float64, f Rows, cf []float64, c Rows, r int, lo geom.Index) {
	var ph [3]int // position of lo inside its coarse cell, in [0,r)
	for d := range ph {
		ph[d] = lo[d] - floorDiv(lo[d], r)*r
	}
	fz, cz, pz := f.Base, c.Base, ph[2]
	for z := 0; z < f.NZ; z++ {
		fo, co, py := fz, cz, ph[1]
		for y := 0; y < f.NY; y++ {
			ci, px := co, ph[0]
			row := ff[fo : fo+f.N]
			for i := range row {
				row[i] = cf[ci]
				if px++; px == r {
					px = 0
					ci++
				}
			}
			fo += f.SY
			if py++; py == r {
				py = 0
				co += c.SY
			}
		}
		fz += f.SZ
		if pz++; pz == r {
			pz = 0
			cz += c.SZ
		}
	}
}

// floorDiv is floored integer division for positive divisors (ghost
// indices can be negative).
func floorDiv(a, r int) int {
	q := a / r
	if a%r != 0 && a < 0 {
		q--
	}
	return q
}
