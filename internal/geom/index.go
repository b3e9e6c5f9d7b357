// Package geom provides the integer index-space geometry used by the
// structured AMR machinery: three-dimensional indices, inclusive boxes,
// and box-list algebra (intersection, subtraction, splitting,
// refinement and coarsening between levels).
//
// Conventions:
//   - A Box is a closed interval in each dimension: it contains every
//     cell i with Lo[d] <= i[d] <= Hi[d] for all d.
//   - A Box with any Hi[d] < Lo[d] is empty.
//   - Refinement by factor r maps coarse cell c to the fine cells
//     [c*r, c*r+r-1]; coarsening is the inverse with floor division
//     (correct for negative indices too).
package geom

import "fmt"

// Dims is the spatial dimensionality of the index space. The SAMR
// machinery in this repository is written for 3-D problems, matching
// the paper's AMR64 and ShockPool3D datasets; lower-dimensional
// problems use degenerate boxes (extent 1 in unused dimensions).
const Dims = 3

// Index is a point in the 3-D integer index space.
type Index [Dims]int

// Add returns the component-wise sum a+b.
func (a Index) Add(b Index) Index {
	return Index{a[0] + b[0], a[1] + b[1], a[2] + b[2]}
}

// Sub returns the component-wise difference a-b.
func (a Index) Sub(b Index) Index {
	return Index{a[0] - b[0], a[1] - b[1], a[2] - b[2]}
}

// Scale returns the component-wise product a*s.
func (a Index) Scale(s int) Index {
	return Index{a[0] * s, a[1] * s, a[2] * s}
}

// Min returns the component-wise minimum of a and b.
func (a Index) Min(b Index) Index {
	return Index{min(a[0], b[0]), min(a[1], b[1]), min(a[2], b[2])}
}

// Max returns the component-wise maximum of a and b.
func (a Index) Max(b Index) Index {
	return Index{max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2])}
}

// AllLE reports whether a[d] <= b[d] for every dimension d.
func (a Index) AllLE(b Index) bool {
	return a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2]
}

// MaxDim returns the dimension with the largest component, breaking
// ties toward the lowest dimension.
func (a Index) MaxDim() int {
	d := 0
	for i := 1; i < Dims; i++ {
		if a[i] > a[d] {
			d = i
		}
	}
	return d
}

func (a Index) String() string {
	return fmt.Sprintf("(%d,%d,%d)", a[0], a[1], a[2])
}

// FloorDiv returns floor(a/b) component-wise for positive b, which is
// the correct coarsening map for negative indices (unlike Go's
// truncated integer division).
func (a Index) FloorDiv(r int) Index {
	var out Index
	for d := 0; d < Dims; d++ {
		q := a[d] / r
		if a[d]%r != 0 && (a[d] < 0) != (r < 0) {
			q--
		}
		out[d] = q
	}
	return out
}

// MortonKey interleaves the low 21 bits of each (non-negative)
// component into a Z-order curve key: indices close in space get
// close keys, the property space-filling-curve partitioners rely on.
// Negative components are clamped to zero.
func (a Index) MortonKey() uint64 {
	var key uint64
	for d := 0; d < Dims; d++ {
		v := a[d]
		if v < 0 {
			v = 0
		}
		key |= spread3(uint64(v)&((1<<21)-1)) << d
	}
	return key
}

// spread3 inserts two zero bits between each of the low 21 bits.
func spread3(x uint64) uint64 {
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}
