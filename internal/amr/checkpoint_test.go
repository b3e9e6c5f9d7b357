package amr

import (
	"bytes"
	"testing"

	"samrdlb/internal/geom"
)

func TestCheckpointRoundTripWithData(t *testing.T) {
	h := buildDataHierarchy(t, 4)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	h2, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if h2.Domain != h.Domain || h2.RefFactor != h.RefFactor ||
		h2.MaxLevel != h.MaxLevel || h2.NGhost != h.NGhost {
		t.Error("metadata not preserved")
	}
	assertSameData(t, h, h2, "checkpoint")
	// Identity, ownership and parentage preserved.
	for l := 0; l <= h.MaxLevel; l++ {
		a, b := h.Grids(l), h2.Grids(l)
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Owner != b[i].Owner || a[i].Parent != b[i].Parent {
				t.Fatalf("grid metadata differs at level %d index %d", l, i)
			}
		}
	}
}

func TestCheckpointRoundTripPlanOnly(t *testing.T) {
	h := New(geom.UnitCube(8), 2, 1, 1, false, "q")
	g := h.AddGrid(0, geom.UnitCube(8), 3, NoGrid)
	h.AddGrid(1, geom.BoxFromShape(geom.Index{2, 2, 2}, geom.Index{4, 4, 4}), 1, g.ID)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	h2, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if h2.WithData {
		t.Error("plan-only flag not preserved")
	}
	if len(h2.Grids(0)) != 1 || len(h2.Grids(1)) != 1 {
		t.Error("grids not restored")
	}
	if h2.Grids(0)[0].Owner != 3 {
		t.Error("owner not restored")
	}
}

func TestCheckpointIDsSurviveFurtherGrowth(t *testing.T) {
	h := buildDataHierarchy(t, 2)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Adding a new grid after restore must not collide with restored IDs.
	g := h2.AddGrid(0, geom.BoxFromShape(geom.Index{0, 0, 0}, geom.Index{16, 16, 16}), 0, NoGrid)
	_ = g
	seen := map[GridID]bool{}
	for l := 0; l <= h2.MaxLevel; l++ {
		for _, x := range h2.Grids(l) {
			if seen[x.ID] {
				t.Fatalf("duplicate grid ID %d after restore", x.ID)
			}
			seen[x.ID] = true
		}
	}
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage must not load")
	}
}
