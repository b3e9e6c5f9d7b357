package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// hilbertPoint inverts hilbertKey for the order-b curve: the inverse map
// the bijection and adjacency tests walk the curve with. The balancer
// only ever sorts by key, so it lives here.
func hilbertPoint(b uint, h uint64) Index {
	var x [Dims]uint32
	for k := uint(0); k < b; k++ {
		for i := uint(0); i < Dims; i++ {
			x[i] |= uint32(h>>(Dims*k+Dims-1-i)&1) << k
		}
	}
	transposeToAxes(&x, b)
	var a Index
	for d := 0; d < Dims; d++ {
		a[d] = int(x[d])
	}
	return a
}

// transposeToAxes converts a transposed Hilbert index back into
// coordinates in place (Skilling's TransposetoAxes).
func transposeToAxes(x *[Dims]uint32, b uint) {
	n := uint32(2) << (b - 1)
	// Gray decode by H ^ (H/2).
	t := x[Dims-1] >> 1
	for i := Dims - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := Dims - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				tt := (x[0] ^ x[i]) & p
				x[0] ^= tt
				x[i] ^= tt
			}
		}
	}
}

// TestHilbertBijectiveOnLattice verifies that the order-b curve is a
// bijection between the 2^b lattice cube and [0, 2^(3b)): every point
// gets a distinct key, every key in range is hit, and hilbertPoint
// inverts hilbertKey exactly.
func TestHilbertBijectiveOnLattice(t *testing.T) {
	for _, b := range []uint{1, 2, 3, 4} {
		n := 1 << b
		total := n * n * n
		seen := make([]bool, total)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					p := Index{x, y, z}
					h := hilbertKey(b, p)
					if h >= uint64(total) {
						t.Fatalf("order %d: key %d of %v out of range %d", b, h, p, total)
					}
					if seen[h] {
						t.Fatalf("order %d: key %d hit twice (at %v)", b, h, p)
					}
					seen[h] = true
					if back := hilbertPoint(b, h); back != p {
						t.Fatalf("order %d: hilbertPoint(%d) = %v, want %v", b, h, back, p)
					}
				}
			}
		}
		for h, ok := range seen {
			if !ok {
				t.Fatalf("order %d: key %d never produced", b, h)
			}
		}
	}
}

// TestHilbertAdjacency verifies the curve's defining property:
// consecutive indices are face neighbours (Manhattan distance exactly
// 1). Checked exhaustively at order 4 and on a sampled window of the
// full order-21 curve.
func TestHilbertAdjacency(t *testing.T) {
	for _, b := range []uint{2, 3, 4} {
		total := uint64(1) << (3 * b)
		for h := uint64(0); h+1 < total; h++ {
			if d := manhattan(hilbertPoint(b, h), hilbertPoint(b, h+1)); d != 1 {
				t.Fatalf("order %d: |P(%d) - P(%d)| = %d, want 1", b, h, h+1, d)
			}
		}
	}
	// Spot-check the production order-21 curve, including across the
	// high-bit boundaries a low-order test never reaches.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		h := rng.Uint64() % ((1 << 63) - 1)
		if d := manhattan(hilbertPoint(hilbertOrder, h), hilbertPoint(hilbertOrder, h+1)); d != 1 {
			t.Fatalf("order 21: |P(%d) - P(%d)| = %d, want 1", h, h+1, d)
		}
	}
}

// TestHilbertRoundTripOrder21 pins the production key: hilbertPoint
// inverts HilbertKey on random in-range points, and negative
// components clamp to zero exactly as MortonKey's do.
func TestHilbertRoundTripOrder21(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		p := Index{rng.Intn(1 << 21), rng.Intn(1 << 21), rng.Intn(1 << 21)}
		if back := hilbertPoint(hilbertOrder, p.HilbertKey()); back != p {
			t.Fatalf("round trip: %v -> %d -> %v", p, p.HilbertKey(), back)
		}
	}
	neg := Index{-5, 3, -1}
	clamped := Index{0, 3, 0}
	if neg.HilbertKey() != clamped.HilbertKey() {
		t.Fatalf("negative components should clamp to zero: key(%v)=%d key(%v)=%d",
			neg, neg.HilbertKey(), clamped, clamped.HilbertKey())
	}
}

// TestHilbertLocalityBeatsMorton compares the two curves with the
// bounding-box spread metric an SFC partitioner cares about: sort a
// point cloud by curve key, cut it into contiguous runs, and sum the
// runs' bounding-box volumes. Tighter runs mean better partition
// locality; the Hilbert order must not be worse than Morton and is
// strictly better on this pinned workload.
func TestHilbertLocalityBeatsMorton(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, runs = 4096, 16
	pts := make([]Index, n)
	for i := range pts {
		pts[i] = Index{rng.Intn(64), rng.Intn(64), rng.Intn(64)}
	}
	hilbert := curveSpread(pts, runs, Index.HilbertKey)
	morton := curveSpread(pts, runs, Index.MortonKey)
	if hilbert >= morton {
		t.Fatalf("Hilbert runs should be tighter than Morton runs: hilbert=%g morton=%g", hilbert, morton)
	}
	t.Logf("bounding-box spread: hilbert=%g morton=%g (%.1f%% tighter)",
		hilbert, morton, 100*(morton-hilbert)/morton)
}

// curveSpread sorts pts by the key, splits them into `runs` contiguous
// chunks and sums each chunk's bounding-box volume.
func curveSpread(pts []Index, runs int, key func(Index) uint64) float64 {
	sorted := append([]Index(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	per := (len(sorted) + runs - 1) / runs
	var total float64
	for start := 0; start < len(sorted); start += per {
		end := start + per
		if end > len(sorted) {
			end = len(sorted)
		}
		lo, hi := sorted[start], sorted[start]
		for _, p := range sorted[start:end] {
			lo, hi = lo.Min(p), hi.Max(p)
		}
		total += float64(Box{Lo: lo, Hi: hi}.NumCells())
	}
	return total
}

func manhattan(a, b Index) int {
	d := 0
	for i := 0; i < Dims; i++ {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}
