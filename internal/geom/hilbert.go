package geom

// Hilbert-curve indexing (Skilling's transpose algorithm, AIP Conf.
// Proc. 707, 2004). Like MortonKey, HilbertKey maps a non-negative
// 3-D index with up to 21 bits per component onto a single uint64
// curve position; unlike the Morton curve, consecutive Hilbert
// positions are always face neighbours, so contiguous curve runs have
// tighter bounding boxes — the locality property SFC partitioners
// want. The two keys are interchangeable as sort keys, which is how
// the sfc and hilbert-sfc policies differ (dlb.curveRuns).

// hilbertOrder is the curve order: bits per component. 3×21 = 63 key
// bits fit a uint64, matching MortonKey's domain.
const hilbertOrder = 21

// HilbertKey returns the position of the index on the order-21
// Hilbert curve. Negative components are clamped to zero and each
// component keeps its low 21 bits, mirroring MortonKey's envelope.
func (a Index) HilbertKey() uint64 {
	return hilbertKey(hilbertOrder, a)
}

// hilbertKey computes the order-b curve position of a point with
// 0 <= component < 2^b.
func hilbertKey(b uint, a Index) uint64 {
	var x [Dims]uint32
	for d := 0; d < Dims; d++ {
		v := a[d]
		if v < 0 {
			v = 0
		}
		x[d] = uint32(v) & (1<<b - 1)
	}
	axesToTranspose(&x, b)
	var h uint64
	for k := int(b) - 1; k >= 0; k-- {
		for i := 0; i < Dims; i++ {
			h = h<<1 | uint64(x[i]>>uint(k)&1)
		}
	}
	return h
}

// axesToTranspose converts coordinates into the transposed Hilbert
// index in place (Skilling's AxestoTranspose).
func axesToTranspose(x *[Dims]uint32, b uint) {
	m := uint32(1) << (b - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < Dims; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < Dims; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[Dims-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < Dims; i++ {
		x[i] ^= t
	}
}
