package geom_test

import (
	"fmt"

	"samrdlb/internal/geom"
)

func ExampleBox_Refine() {
	coarse := geom.Box{Lo: geom.Index{2, 2, 2}, Hi: geom.Index{3, 3, 3}}
	fine := coarse.Refine(2)
	fmt.Println(fine, fine.NumCells(), "cells")
	fmt.Println(fine.Coarsen(2) == coarse)
	// Output:
	// [(4,4,4)..(7,7,7)] 64 cells
	// true
}

func ExampleSubtract() {
	domain := geom.UnitCube(4)
	hole := geom.Box{Lo: geom.Index{1, 1, 1}, Hi: geom.Index{2, 2, 2}}
	parts := geom.Subtract(domain, hole)
	fmt.Println(len(parts), "boxes,", parts.NumCells(), "cells")
	// Output:
	// 6 boxes, 56 cells
}

func ExampleBoxList_SplitEvenly() {
	tiles := geom.BoxList{geom.UnitCube(8)}.SplitEvenly(4)
	fmt.Println(len(tiles), "tiles of", tiles[0].NumCells(), "cells each")
	// Output:
	// 4 tiles of 128 cells each
}

func ExampleIndex_MortonKey() {
	a := geom.Index{0, 0, 0}
	b := geom.Index{1, 1, 1} // same octant as a
	c := geom.Index{4, 4, 4} // next octant
	fmt.Println(a.MortonKey() < b.MortonKey(), b.MortonKey() < c.MortonKey())
	// Output:
	// true true
}
