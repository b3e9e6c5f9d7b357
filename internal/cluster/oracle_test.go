package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"samrdlb/internal/geom"
)

// The per-cell flag-field API and the eight-scans-per-node clustering
// that the word-wise pipeline replaced, kept as the reference the
// differential tests and FuzzClusterMatchesReference compare against.
// Every one of them reads and writes a cell at a time through Set and
// Get, never a word.

// Set flags the cell i. Cells outside the field's box are ignored.
func (f *FlagField) Set(i geom.Index) {
	if !f.Box.Contains(i) {
		return
	}
	w, bit := f.bit(i)
	if *w&bit == 0 {
		*w |= bit
		f.count++
	}
}

// Get reports whether cell i is flagged (false outside the box).
func (f *FlagField) Get(i geom.Index) bool {
	if !f.Box.Contains(i) {
		return false
	}
	w, bit := f.bit(i)
	return *w&bit != 0
}

// bit returns the word holding cell i, which must lie in the box, and
// the cell's bit in it.
func (f *FlagField) bit(i geom.Index) (*uint64, uint64) {
	k := i[0] - f.Box.Lo[0]
	at, _ := f.rowAt(i[1], i[2])
	return &f.words[at+k/64], 1 << (k % 64)
}

// Get reports whether cell k of the row is flagged.
func (r Row) Get(k int) bool {
	k += r.off
	return r.w[k>>6]>>(k&63)&1 == 1
}

// SetWhere flags every cell of the field's box for which pred returns
// true and returns the number of newly flagged cells.
func (f *FlagField) SetWhere(pred func(geom.Index) bool) int {
	added := 0
	f.Box.ForEach(func(i geom.Index) {
		if pred(i) && !f.Get(i) {
			f.Set(i)
			added++
		}
	})
	return added
}

// BoundingBox returns the smallest box containing every flagged cell
// inside b (empty box when there are none).
func (f *FlagField) BoundingBox(b geom.Box) geom.Box {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{-1, -1, -1}}
	}
	lo := geom.Index{1 << 30, 1 << 30, 1 << 30}
	hi := geom.Index{-(1 << 30), -(1 << 30), -(1 << 30)}
	found := false
	b.ForEach(func(i geom.Index) {
		if f.Get(i) {
			lo, hi, found = lo.Min(i), hi.Max(i), true
		}
	})
	if !found {
		return geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{-1, -1, -1}}
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// signature returns, for dimension d within box b, the number of
// flagged cells in each plane perpendicular to d.
func (f *FlagField) signature(b geom.Box, d int) []int {
	sig := make([]int, b.Shape()[d])
	b.ForEach(func(i geom.Index) {
		if f.Get(i) {
			sig[i[d]-b.Lo[d]]++
		}
	})
	return sig
}

// refDilate is the per-cell buffering: a fresh field with the
// (2r+1)³ neighbourhood of every flag of f set, clipped to f's box.
func refDilate(f *FlagField, radius int) *FlagField {
	out := NewFlagField(f.Box)
	f.Box.ForEach(func(i geom.Index) {
		if !f.Get(i) {
			return
		}
		nb := geom.Box{
			Lo: i.Sub(geom.Index{radius, radius, radius}),
			Hi: i.Add(geom.Index{radius, radius, radius}),
		}.Intersect(f.Box)
		nb.ForEach(out.Set)
	})
	return out
}

func refCluster(f *FlagField, p Params) geom.BoxList {
	p.normalize()
	if f.Count() == 0 {
		return nil
	}
	var out geom.BoxList
	refClusterRecurse(f, f.BoundingBox(f.Box), p, p.MaxDepth, &out)
	out.SortByLo()
	return out
}

func refClusterRecurse(f *FlagField, b geom.Box, p Params, depth int, out *geom.BoxList) {
	b = f.BoundingBox(b)
	if b.Empty() {
		return
	}
	nflag := f.CountIn(b)
	eff := float64(nflag) / float64(b.NumCells())
	shape := b.Shape()
	tooBig := p.MaxSize > 0 && (shape[0] > p.MaxSize || shape[1] > p.MaxSize || shape[2] > p.MaxSize)
	small := shape[0] <= p.MinSize && shape[1] <= p.MinSize && shape[2] <= p.MinSize
	if depth <= 0 || (!tooBig && (eff >= p.MinEfficiency || small)) {
		*out = append(*out, b)
		return
	}
	d, at, ok := refFindCut(f, b, p)
	if !ok {
		*out = append(*out, b)
		return
	}
	lo, hi := b.SplitAt(d, at)
	refClusterRecurse(f, lo, p, depth-1, out)
	refClusterRecurse(f, hi, p, depth-1, out)
}

func refFindCut(f *FlagField, b geom.Box, p Params) (dim, at int, ok bool) {
	shape := b.Shape()
	bestDim, bestAt, bestDist := -1, 0, 1<<30
	for d := 0; d < geom.Dims; d++ {
		if shape[d] < 2*p.MinSize {
			continue
		}
		sig := f.signature(b, d)
		mid := len(sig) / 2
		for k := p.MinSize; k <= len(sig)-p.MinSize; k++ {
			if sig[k-1] == 0 || sig[k] == 0 {
				dist := abs(k - mid)
				if dist < bestDist {
					bestDim, bestAt, bestDist = d, b.Lo[d]+k, dist
				}
			}
		}
	}
	if bestDim >= 0 {
		return bestDim, bestAt, true
	}
	bestDim, bestAt = -1, 0
	bestStrength := 0
	for d := 0; d < geom.Dims; d++ {
		if shape[d] < 2*p.MinSize {
			continue
		}
		sig := f.signature(b, d)
		lap := make([]int, len(sig))
		for k := 1; k < len(sig)-1; k++ {
			lap[k] = sig[k+1] - 2*sig[k] + sig[k-1]
		}
		for k := p.MinSize; k < len(sig)-p.MinSize; k++ {
			if (lap[k] >= 0) != (lap[k+1] >= 0) {
				strength := abs(lap[k] - lap[k+1])
				if strength > bestStrength {
					bestDim, bestAt, bestStrength = d, b.Lo[d]+k+1, strength
				}
			}
		}
	}
	if bestDim >= 0 {
		return bestDim, bestAt, true
	}
	d := shape.MaxDim()
	if shape[d] >= 2*p.MinSize {
		return d, b.Lo[d] + shape[d]/2, true
	}
	for d := 0; d < geom.Dims; d++ {
		if shape[d] >= 2*p.MinSize {
			return d, b.Lo[d] + shape[d]/2, true
		}
	}
	return 0, 0, false
}

// sameFlags fails unless got and want flag the same cells and agree
// on the count.
func sameFlags(t testing.TB, what string, got, want *FlagField) {
	t.Helper()
	if got.Box != want.Box {
		t.Fatalf("%s: box %v, want %v", what, got.Box, want.Box)
	}
	want.Box.ForEach(func(i geom.Index) {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("%s: cell %v flagged=%v, want %v", what, i, got.Get(i), want.Get(i))
		}
	})
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %d, want %d", what, got.Count(), want.Count())
	}
	tailClear(t, what, got)
}

// tailClear fails if a bit past the width of some row of f is set.
func tailClear(t testing.TB, what string, f *FlagField) {
	t.Helper()
	width := f.Box.Hi[0] - f.Box.Lo[0] + 1
	for at := 0; at < len(f.words); at += f.nw {
		for k := width; k < 64*f.nw; k++ {
			if f.words[at+k/64]>>(k%64)&1 == 1 {
				t.Fatalf("%s: bit %d of the %d-cell row at word %d is set", what, k, width, at)
			}
		}
	}
}

func sameBoxes(t testing.TB, what string, got, want geom.BoxList) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d boxes %v, want %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: box %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// clone copies a field so the in-place Dilate and its oracle start
// from the same flags.
func (f *FlagField) clone() *FlagField {
	c := NewFlagField(f.Box)
	copy(c.words, f.words)
	c.count = f.count
	return c
}

// degenerateFields are the shapes and flag placements most likely to
// trip row arithmetic: extent 1 in each axis, non-zero Lo, flags on
// faces, edges and corners, all-set and single-cell fields.
func degenerateFields() map[string]*FlagField {
	out := map[string]*FlagField{}
	at := func(lo, shape geom.Index) *FlagField { return NewFlagField(geom.BoxFromShape(lo, shape)) }

	for d := 0; d < geom.Dims; d++ {
		shape := geom.Index{7, 6, 5}
		shape[d] = 1
		f := at(geom.Index{-3, 4, 9}, shape)
		f.SetWhere(func(i geom.Index) bool { return (i[0]+2*i[1]+3*i[2])%3 == 0 })
		out[fmt.Sprintf("flat-%d", d)] = f
	}
	single := at(geom.Index{5, -2, 0}, geom.Index{1, 1, 1})
	single.Set(single.Box.Lo)
	out["single-cell"] = single

	full := at(geom.Index{1, 2, 3}, geom.Index{6, 5, 4})
	full.SetWhere(func(geom.Index) bool { return true })
	out["all-set"] = full

	corners := at(geom.Index{-4, -4, -4}, geom.Index{9, 8, 7})
	b := corners.Box
	for _, x := range []int{b.Lo[0], b.Hi[0]} {
		for _, y := range []int{b.Lo[1], b.Hi[1]} {
			for _, z := range []int{b.Lo[2], b.Hi[2]} {
				corners.Set(geom.Index{x, y, z})
			}
		}
	}
	out["corners"] = corners

	edges := at(geom.Index{2, 0, -6}, geom.Index{8, 8, 8})
	b = edges.Box
	edges.SetWhere(func(i geom.Index) bool {
		onFace := 0
		for d := 0; d < geom.Dims; d++ {
			if i[d] == b.Lo[d] || i[d] == b.Hi[d] {
				onFace++
			}
		}
		return onFace >= 2
	})
	out["edges"] = edges

	face := at(geom.Index{0, 3, 0}, geom.Index{6, 7, 8})
	b = face.Box
	face.SetWhere(func(i geom.Index) bool { return i[1] == b.Hi[1] || i[2] == b.Lo[2] })
	out["faces"] = face

	one := at(geom.Index{-1, -1, -1}, geom.Index{9, 9, 9})
	one.Set(geom.Index{3, 3, 3})
	out["one-interior"] = one
	return out
}

// randomField is a seeded field over a box of random shape (extent 1
// now and then, an x-extent of up to 150, so rows of up to three words,
// a third of the time) and position, flagged by a mix of scattered
// cells and solid blocks so that clustering meets holes, inflections
// and bisections.
func randomField(rng *rand.Rand) *FlagField {
	var lo, shape geom.Index
	for d := 0; d < geom.Dims; d++ {
		lo[d] = rng.Intn(21) - 10
		shape[d] = 1 + rng.Intn(14)
		if rng.Intn(8) == 0 {
			shape[d] = 1
		}
	}
	if rng.Intn(3) == 0 {
		lo[0] = rng.Intn(201) - 100
		shape[0] = 1 + rng.Intn(150)
	}
	f := NewFlagField(geom.BoxFromShape(lo, shape))
	density := []float64{0.02, 0.1, 0.4, 0.9}[rng.Intn(4)]
	f.SetWhere(func(geom.Index) bool { return rng.Float64() < density })
	for n := rng.Intn(3); n > 0; n-- {
		var blo, bshape geom.Index
		for d := 0; d < geom.Dims; d++ {
			blo[d] = lo[d] + rng.Intn(shape[d])
			bshape[d] = 1 + rng.Intn(shape[d])
		}
		geom.BoxFromShape(blo, bshape).ForEach(f.Set)
	}
	return f
}

var (
	sweepEfficiency = []float64{0.5, 0.7, 0.9}
	sweepMaxSize    = []int{0, 8, 32}
)

// checkAgainstReference dilates f by r in place and clusters it under
// every parameter pair of the sweep, failing unless each stage equals
// its oracle and the boxes are disjoint, inside the field and cover
// every flag.
func checkAgainstReference(t testing.TB, what string, f *FlagField, r int) {
	t.Helper()
	want := f
	if r > 0 {
		want = refDilate(f, r)
	}
	f.Dilate(r)
	sameFlags(t, fmt.Sprintf("%s: Dilate(%d)", what, r), f, want)
	for _, eff := range sweepEfficiency {
		for _, maxSize := range sweepMaxSize {
			p := Params{MinEfficiency: eff, MaxSize: maxSize}
			got := Cluster(f, p)
			sameBoxes(t, fmt.Sprintf("%s: Cluster(r=%d eff=%g max=%d)", what, r, eff, maxSize), got, refCluster(f, p))
			if !got.Disjoint() {
				t.Fatalf("%s: boxes overlap: %v", what, got)
			}
			covered := 0
			for _, b := range got {
				if !f.Box.ContainsBox(b) {
					t.Fatalf("%s: box %v outside field %v", what, b, f.Box)
				}
				covered += f.CountIn(b)
			}
			if covered != f.Count() {
				t.Fatalf("%s: boxes cover %d of %d flags", what, covered, f.Count())
			}
		}
	}
}

func TestDilateAndClusterMatchReferenceOnDegenerateFields(t *testing.T) {
	for name, f := range degenerateFields() {
		for _, r := range []int{0, 1, 2, 3, 40} {
			checkAgainstReference(t, name, f.clone(), r)
		}
	}
}

func TestDilateAndClusterMatchReferenceOnRandomFields(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 600; n++ {
		f := randomField(rng)
		r := rng.Intn(4)
		if rng.Intn(20) == 0 {
			r = 40 // larger than any extent
		}
		checkAgainstReference(t, fmt.Sprintf("field %d %v", n, f.Box), f, r)
	}
}

func TestSetRows(t *testing.T) {
	f := NewFlagField(geom.BoxFromShape(geom.Index{2, -1, 5}, geom.Index{4, 3, 2}))
	// Rows arrive in offset order, clipped to the field, each with
	// the index of its first cell.
	var seen []geom.Index
	f.SetRows(geom.BoxFromShape(geom.Index{3, 0, 0}, geom.Index{10, 10, 6}), func(row Row, x0, y, z int) {
		if row.Len() != 3 {
			t.Fatalf("row at (%d,%d,%d) has %d cells, want 3", x0, y, z, row.Len())
		}
		seen = append(seen, geom.Index{x0, y, z})
		row.Set(0)
	})
	if want := []geom.Index{{3, 0, 5}, {3, 1, 5}}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("rows %v, want %v", seen, want)
	}
	if f.Count() != 2 || !f.Get(geom.Index{3, 0, 5}) || !f.Get(geom.Index{3, 1, 5}) || f.Get(geom.Index{4, 0, 5}) {
		t.Errorf("after flagging two row heads: count %d", f.Count())
	}
	// Re-setting a flag adds nothing; a row shows what is set.
	f.SetRows(f.Box, func(row Row, x0, y, z int) {
		if y == 0 && z == 5 {
			if !row.Get(1) || row.Get(0) {
				t.Errorf("row (%d,%d,%d) does not show the flag at x=3", x0, y, z)
			}
			row.Set(1) // (3,0,5) again
		}
	})
	if f.Count() != 2 || f.CountIn(f.Box) != 2 {
		t.Errorf("count %d (scan %d), want 2", f.Count(), f.CountIn(f.Box))
	}
	// A box that misses the field visits nothing.
	f.SetRows(geom.BoxFromShape(geom.Index{50, 0, 0}, geom.Index{2, 2, 2}), func(Row, int, int, int) {
		t.Error("row visited outside the field")
	})
	// A cell past the row panics rather than set a bit outside it.
	defer func() {
		if recover() == nil {
			t.Error("Row.Set past the row's end did not panic")
		}
	}()
	f.SetRows(f.Box, func(row Row, _, _, _ int) { row.Set(row.Len()) })
}

// TestSetRowsAcrossWords flags, through clipped SetRows calls whose
// rows start and end inside words, every cell of a field whose rows
// span three words, and checks each cell against Get.
func TestSetRowsAcrossWords(t *testing.T) {
	f := NewFlagField(geom.BoxFromShape(geom.Index{-37, 0, 0}, geom.Index{150, 2, 2}))
	pred := func(x, y, z int) bool { return (x*7+y*3+z)%5 < 2 }
	for _, x := range [][2]int{{-40, 20}, {27, 28}, {91, 140}, {29, 90}, {21, 26}} {
		b := geom.Box{Lo: geom.Index{x[0], 0, 0}, Hi: geom.Index{x[1], 1, 1}}
		f.SetRows(b, func(row Row, x0, y, z int) {
			for k := range row.Len() {
				if pred(x0+k, y, z) {
					row.Set(k)
				}
			}
		})
	}
	want := NewFlagField(f.Box)
	want.SetWhere(func(i geom.Index) bool { return pred(i[0], i[1], i[2]) })
	sameFlags(t, "SetRows", f, want)
	for _, b := range []geom.Box{f.Box, geom.BoxFromShape(geom.Index{26, 1, 0}, geom.Index{66, 1, 2})} {
		n := 0
		b.ForEach(func(i geom.Index) {
			if want.Get(i) {
				n++
			}
		})
		if got := f.CountIn(b); got != n {
			t.Errorf("CountIn(%v) = %d, want %d", b, got, n)
		}
	}
}

// TestSignaturesMatchPerCell compares the one-pass signatures with the
// per-cell ones on boxes of a field with 300 rows of 70 cells, so the
// byte-lane counters overflow unless they are flushed, and rows span
// two words.
func TestSignaturesMatchPerCell(t *testing.T) {
	f := NewFlagField(geom.BoxFromShape(geom.Index{-5, 0, 0}, geom.Index{70, 20, 15}))
	f.SetWhere(func(i geom.Index) bool { return i[0] < 3 || (i[0]*i[0]+i[1]+2*i[2])%5 != 0 })
	for _, b := range []geom.Box{
		f.Box,
		geom.BoxFromShape(geom.Index{-5, 2, 1}, geom.Index{3, 18, 14}),
		geom.BoxFromShape(geom.Index{50, 0, 0}, geom.Index{15, 20, 15}),
		geom.BoxFromShape(geom.Index{58, 3, 3}, geom.Index{2, 1, 9}),
	} {
		sig := f.signatures(b)
		for d := range sig {
			if want := f.signature(b, d); fmt.Sprint(sig[d]) != fmt.Sprint(want) {
				t.Errorf("box %v dimension %d: signature %v, want %v", b, d, sig[d], want)
			}
		}
	}
}

// fieldFromBytes decodes a fuzz input: three shape bytes (x-extent
// 1–130, the others 1–12), three Lo bytes, a radius byte, then one flag
// bit per cell. An x-extent past 64 caps the radius at 2, which bounds
// the per-cell oracle's cost.
func fieldFromBytes(data []byte) (*FlagField, int) {
	if len(data) < 7 {
		return nil, 0
	}
	var lo, shape geom.Index
	for d := 0; d < geom.Dims; d++ {
		shape[d] = 1 + int(data[d])%12
		lo[d] = int(int8(data[3+d]))
	}
	shape[0] = 1 + int(data[0])%130
	r := int(data[6]) % 6
	if data[6] >= 250 {
		r = 40
	}
	if shape[0] > 64 {
		r = min(r, 2)
	}
	bits := data[7:]
	f := NewFlagField(geom.BoxFromShape(lo, shape))
	n := 0
	f.SetWhere(func(geom.Index) bool {
		set := n/8 < len(bits) && bits[n/8]>>(n%8)&1 == 1
		n++
		return set
	})
	return f, r
}

// bytesFromField is fieldFromBytes' inverse, for seeding the corpus.
func bytesFromField(f *FlagField, r int) []byte {
	s := f.Box.Shape()
	data := []byte{byte(s[0] - 1), byte(s[1] - 1), byte(s[2] - 1),
		byte(int8(f.Box.Lo[0])), byte(int8(f.Box.Lo[1])), byte(int8(f.Box.Lo[2])), byte(r)}
	if r > 5 {
		data[6] = 250
	}
	bits := make([]byte, (f.Box.NumCells()+7)/8)
	n := 0
	f.Box.ForEach(func(i geom.Index) {
		if f.Get(i) {
			bits[n/8] |= 1 << (n % 8)
		}
		n++
	})
	return append(data, bits...)
}

// FuzzClusterMatchesReference drives Dilate then Cluster from raw
// bytes and checks both against their oracles.
func FuzzClusterMatchesReference(f *testing.F) {
	for _, field := range degenerateFields() {
		for _, r := range []int{0, 1, 40} {
			f.Add(bytesFromField(field, r))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		field, r := fieldFromBytes(data)
		if field == nil {
			return
		}
		checkAgainstReference(t, fmt.Sprintf("%v", field.Box), field, r)
	})
}
