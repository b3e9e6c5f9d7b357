package grid

import (
	"fmt"

	"samrdlb/internal/geom"
)

// PackRegion appends the named fields of p over region to buf (field-
// major, then offset order within the region) and returns the extended
// slice, moving whole x-rows with copy semantics. The region must lie
// within the patch's grown box — both sides of a message must agree on
// the exact cell set.
func PackRegion(buf []float64, p *Patch, region geom.Box, fields []string) []float64 {
	g := p.Grown()
	if !g.ContainsBox(region) {
		panic(fmt.Sprintf("grid.PackRegion: region %v escapes patch %v", region, g))
	}
	if region.Empty() {
		return buf
	}
	rw := RowsOf(g, region)
	for _, name := range fields {
		f := p.Field(name)
		zo := rw.Base
		for z := 0; z < rw.NZ; z++ {
			o := zo
			for y := 0; y < rw.NY; y++ {
				buf = append(buf, f[o:o+rw.N]...)
				o += rw.SY
			}
			zo += rw.SZ
		}
	}
	return buf
}

// UnpackRegion writes data produced by PackRegion with the same
// region and field list into p: each field's slice of data is the
// storage of region itself.
func UnpackRegion(p *Patch, region geom.Box, fields []string, data []float64) {
	g := p.Grown()
	if !g.ContainsBox(region) {
		panic(fmt.Sprintf("grid.UnpackRegion: region %v escapes patch %v", region, g))
	}
	n := int(region.NumCells())
	if len(data) != n*len(fields) {
		panic(fmt.Sprintf("grid.UnpackRegion: got %d values for %d cells × %d fields",
			len(data), n, len(fields)))
	}
	for k, name := range fields {
		CopyRegionFrom(p, data[k*n:(k+1)*n], region, name, region)
	}
}
