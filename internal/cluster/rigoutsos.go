package cluster

import (
	"math/bits"

	"samrdlb/internal/geom"
)

// Params controls the clustering.
type Params struct {
	// MinEfficiency is the minimum fraction of cells in an accepted box
	// that must be flagged. Typical SAMR values are 0.7–0.9.
	MinEfficiency float64
	// MaxSize is the maximum extent of an accepted box in any
	// dimension; larger boxes are always split. Zero means unlimited.
	MaxSize int
	// MinSize is the extent below which a box is never split further
	// (accepted regardless of efficiency). Zero means 2.
	MinSize int
	// MaxDepth bounds the recursion as a safety net. Zero means 64.
	MaxDepth int
}

// DefaultParams are reasonable SAMR regridding defaults.
func DefaultParams() Params {
	return Params{MinEfficiency: 0.7, MaxSize: 32, MinSize: 2, MaxDepth: 64}
}

func (p *Params) normalize() {
	if p.MinSize <= 0 {
		p.MinSize = 2
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 64
	}
	if p.MinEfficiency <= 0 {
		p.MinEfficiency = 0.7
	}
}

// Cluster covers every flagged cell of f with rectangular boxes using
// the Berger–Rigoutsos algorithm. The returned boxes are disjoint,
// lie within f.Box, and each contains at least one flagged cell.
func Cluster(f *FlagField, p Params) geom.BoxList {
	p.normalize()
	if f.Count() == 0 {
		return nil
	}
	var out geom.BoxList
	clusterRecurse(f, f.Box, p, p.MaxDepth, &out)
	out.SortByLo()
	return out
}

// signatures returns, for each dimension d, the number of flagged
// cells of box b in each plane perpendicular to d: sig[d] has
// b.Shape()[d] entries, entry k counting plane b.Lo[d]+k. One pass
// over the x-rows of b fills all three. They live in the field's
// scratch, so they are overwritten by the next call.
//
// A row's popcount over b gives its y and z entries. The x signature
// is counted in byte lanes: spread turns each byte of a row word into
// eight one-byte counters in one uint64, and f.lanes adds them up, one
// uint64 per byte of the words b's rows span (so lane k of counter e
// counts bit 8e+k from the first such word), with the bits outside b
// masked off. A lane holds at most 255, so the counters are flushed
// into sig[0] every 255 rows with flags.
func (f *FlagField) signatures(b geom.Box) (sig [geom.Dims][]int) {
	s := b.Shape()
	if f.sig == nil {
		fs := f.Box.Shape()
		f.sig = make([]int, fs[0]+fs[1]+fs[2])
		f.lanes = make([]uint64, 8*f.nw)
	}
	buf := f.sig[:s[0]+s[1]+s[2]]
	clear(buf)
	sig[0], sig[1], sig[2] = buf[:s[0]], buf[s[0]:s[0]+s[1]], buf[s[0]+s[1]:]

	lo, hi := b.Lo[0]-f.Box.Lo[0], b.Hi[0]-f.Box.Lo[0]
	first, last := lo>>6, hi>>6
	mlo, mhi := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-hi&63) // b's bits of the first and last word
	lanes := f.lanes[:8*(last-first+1)]
	rows := 0
	at0, zstride := f.rowAt(b.Lo[1], b.Lo[2])
	for z := 0; z < s[2]; z, at0 = z+1, at0+zstride {
		for y, at := 0, at0; y < s[1]; y, at = y+1, at+f.nw {
			w := f.words[at+first : at+last+1 : at+last+1]
			n := 0
			for i, v := range w {
				if i == 0 {
					v &= mlo
				}
				if i == len(w)-1 {
					v &= mhi
				}
				if v == 0 {
					continue
				}
				n += bits.OnesCount64(v)
				l := lanes[8*i : 8*i+8 : 8*i+8]
				l[0] += spread[v&0xff]
				l[1] += spread[v>>8&0xff]
				l[2] += spread[v>>16&0xff]
				l[3] += spread[v>>24&0xff]
				l[4] += spread[v>>32&0xff]
				l[5] += spread[v>>40&0xff]
				l[6] += spread[v>>48&0xff]
				l[7] += spread[v>>56]
			}
			if n == 0 {
				continue
			}
			sig[1][y] += n
			sig[2][z] += n
			if rows++; rows == 255 {
				flushLanes(sig[0], lanes, lo&63)
				rows = 0
			}
		}
	}
	if rows > 0 {
		flushLanes(sig[0], lanes, lo&63)
	}
	return sig
}

// spread[v] has byte k equal to bit k of v.
var spread = func() (t [256]uint64) {
	for v := range t {
		for k := range 8 {
			t[v] |= uint64(v>>k&1) << (8 * k)
		}
	}
	return t
}()

// flushLanes adds the byte-lane counters to sig, whose entry 0 is bit
// off of the first counted word, and clears them. Lanes outside sig
// are masked off, so zero.
func flushLanes(sig []int, lanes []uint64, off int) {
	for e, c := range lanes {
		if c == 0 {
			continue
		}
		lanes[e] = 0
		for k := range 8 {
			if x := 8*e + k - off; x >= 0 && x < len(sig) {
				sig[x] += int(c >> (8 * k) & 0xff)
			}
		}
	}
}

func clusterRecurse(f *FlagField, b geom.Box, p Params, depth int, out *geom.BoxList) {
	sig := f.signatures(b)
	// Shrink-wrap to the flags inside: the planes of b that hold a
	// flag run from the first to the last non-zero signature entry,
	// and trimming empty planes along one dimension leaves the other
	// two signatures as they are.
	for d := range sig {
		lo, hi := 0, len(sig[d])
		for lo < hi && sig[d][lo] == 0 {
			lo++
		}
		if lo == hi {
			return // no flags in b
		}
		for sig[d][hi-1] == 0 {
			hi--
		}
		b.Lo[d], b.Hi[d] = b.Lo[d]+lo, b.Lo[d]+hi-1
		sig[d] = sig[d][lo:hi]
	}
	nflag := 0
	for _, n := range sig[0] {
		nflag += n
	}
	eff := float64(nflag) / float64(b.NumCells())
	shape := b.Shape()
	tooBig := p.MaxSize > 0 && (shape[0] > p.MaxSize || shape[1] > p.MaxSize || shape[2] > p.MaxSize)
	small := shape[0] <= p.MinSize && shape[1] <= p.MinSize && shape[2] <= p.MinSize

	if depth <= 0 || (!tooBig && (eff >= p.MinEfficiency || small)) {
		*out = append(*out, b)
		return
	}

	d, at, ok := findCut(sig, b, p)
	if !ok {
		// No admissible cut: accept as-is.
		*out = append(*out, b)
		return
	}
	lo, hi := b.SplitAt(d, at)
	clusterRecurse(f, lo, p, depth-1, out)
	clusterRecurse(f, hi, p, depth-1, out)
}

// findCut picks the Berger–Rigoutsos cut for box b with signatures
// sigs: a hole (plane with zero flags) if one exists, else the
// strongest inflection point of the signature Laplacian, else the
// midpoint of the longest dimension. Cut positions that would produce
// a slab thinner than MinSize are rejected. It returns the dimension,
// the cut plane (first index of the upper half), and whether a cut
// was found.
func findCut(sigs [geom.Dims][]int, b geom.Box, p Params) (dim, at int, ok bool) {
	shape := b.Shape()

	// Pass 1: holes, preferring the hole closest to the box centre of
	// the longest admissible dimension.
	bestDim, bestAt, bestDist := -1, 0, 1<<30
	for d, sig := range sigs {
		if shape[d] < 2*p.MinSize {
			continue
		}
		mid := len(sig) / 2
		for k := p.MinSize; k <= len(sig)-p.MinSize; k++ {
			if sig[k-1] == 0 || sig[k] == 0 {
				// Cutting at plane k separates [0,k) from [k,len).
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

	// Pass 2: strongest zero-crossing of the signature's second
	// difference (inflection point).
	bestDim, bestAt = -1, 0
	bestStrength := 0
	for d, sig := range sigs {
		if shape[d] < 2*p.MinSize {
			continue
		}
		for k := p.MinSize; k < len(sig)-p.MinSize; k++ {
			lo, hi := secondDiff(sig, k), secondDiff(sig, k+1)
			if (lo >= 0) != (hi >= 0) { // sign change between k and k+1
				strength := abs(lo - hi)
				if strength > bestStrength {
					bestDim, bestAt, bestStrength = d, b.Lo[d]+k+1, strength
				}
			}
		}
	}
	if bestDim >= 0 {
		return bestDim, bestAt, true
	}

	// Pass 3: bisect the longest dimension if possible.
	d := shape.MaxDim()
	if shape[d] >= 2*p.MinSize {
		return d, b.Lo[d] + shape[d]/2, true
	}
	// Try any other dimension.
	for d := 0; d < geom.Dims; d++ {
		if shape[d] >= 2*p.MinSize {
			return d, b.Lo[d] + shape[d]/2, true
		}
	}
	return 0, 0, false
}

// secondDiff is Δ_k = sig[k+1] - 2 sig[k] + sig[k-1], taken as zero at
// both ends of the signature.
func secondDiff(sig []int, k int) int {
	if k < 1 || k > len(sig)-2 {
		return 0
	}
	return sig[k+1] - 2*sig[k] + sig[k-1]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
