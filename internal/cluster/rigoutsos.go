package cluster

import "samrdlb/internal/geom"

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
// over the x-rows of b fills all three, which share one allocation.
func (f *FlagField) signatures(b geom.Box) (sig [geom.Dims][]int) {
	s := b.Shape()
	buf := make([]int, s[0]+s[1]+s[2])
	sig[0], sig[1], sig[2] = buf[:s[0]], buf[s[0]:s[0]+s[1]], buf[s[0]+s[1]:]
	f.scanRows(b, func(off, width, y, z int) {
		n := 0
		for x, set := range f.flags[off : off+width] {
			if set {
				sig[0][x]++
				n++
			}
		}
		sig[1][y-b.Lo[1]] += n
		sig[2][z-b.Lo[2]] += n
	})
	return sig
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

// Efficiency returns the overall fill efficiency of the boxes against
// the flag field: flagged cells / total box cells.
func Efficiency(f *FlagField, boxes geom.BoxList) float64 {
	if boxes.NumCells() == 0 {
		return 0
	}
	flagged := 0
	for _, b := range boxes {
		flagged += f.CountIn(b)
	}
	return float64(flagged) / float64(boxes.NumCells())
}
