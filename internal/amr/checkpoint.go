package amr

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"samrdlb/internal/geom"
)

// Checkpointing: a Hierarchy (structure, ownership, and field data)
// can be written to a stream and reconstructed later — long SAMR
// campaigns are restarted far more often than they finish in one
// sitting.

// checkpointHeader is the serialized form of the hierarchy metadata.
type checkpointHeader struct {
	Domain    geom.Box
	RefFactor int
	MaxLevel  int
	NGhost    int
	Fields    []string
	WithData  bool
	NumGrids  int
}

// checkpointGrid is the serialized form of one grid.
type checkpointGrid struct {
	ID     GridID
	Level  int
	Box    geom.Box
	Owner  int
	Parent GridID
	// Data holds each field's storage over the grown box, in
	// h.Fields order; nil for plan-only hierarchies.
	Data [][]float64
}

// Save writes the hierarchy to w. The encoding is self-contained:
// Load needs nothing but the stream.
func (h *Hierarchy) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	hdr := checkpointHeader{
		Domain:    h.Domain,
		RefFactor: h.RefFactor,
		MaxLevel:  h.MaxLevel,
		NGhost:    h.NGhost,
		Fields:    h.Fields,
		WithData:  h.WithData,
	}
	for l := 0; l <= h.MaxLevel; l++ {
		hdr.NumGrids += len(h.Grids(l))
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("amr.Save: header: %w", err)
	}
	for l := 0; l <= h.MaxLevel; l++ {
		for _, g := range h.Grids(l) {
			cg := checkpointGrid{
				ID: g.ID, Level: g.Level, Box: g.Box,
				Owner: g.Owner, Parent: g.Parent,
			}
			if h.WithData && g.Patch != nil {
				cg.Data = make([][]float64, len(h.Fields))
				for i, f := range h.Fields {
					cg.Data[i] = g.Patch.Field(f)
				}
			}
			if err := enc.Encode(cg); err != nil {
				return fmt.Errorf("amr.Save: grid %d: %w", g.ID, err)
			}
		}
	}
	return nil
}

// Sanity caps for checkpoint streams: anything beyond these is a
// corrupt or hostile file, not a plausible SAMR run.
const (
	maxLoadRefFactor = 16
	maxLoadMaxLevel  = 32
	maxLoadNGhost    = 16
	maxLoadFields    = 64
	maxLoadGrids     = 1 << 22
	maxLoadExtent    = 1 << 31 // finest-level domain extent per dimension
)

// CheckShape reports why a hierarchy of this shape cannot be
// checkpointed: Load refuses a header outside these bounds before any
// of New's panicking invariants can fire, and a run's constructor
// refuses the same shapes so every checkpoint it writes loads back.
func CheckShape(domain geom.Box, refFactor, maxLevel, nGhost int, fields []string) error {
	if domain.Empty() {
		return fmt.Errorf("empty domain %v", domain)
	}
	if refFactor < 2 || refFactor > maxLoadRefFactor {
		return fmt.Errorf("refinement factor %d outside [2,%d]", refFactor, maxLoadRefFactor)
	}
	if maxLevel < 0 || maxLevel > maxLoadMaxLevel {
		return fmt.Errorf("max level %d outside [0,%d]", maxLevel, maxLoadMaxLevel)
	}
	if nGhost < 0 || nGhost > maxLoadNGhost {
		return fmt.Errorf("ghost width %d outside [0,%d]", nGhost, maxLoadNGhost)
	}
	if len(fields) > maxLoadFields {
		return fmt.Errorf("%d fields exceed the cap of %d", len(fields), maxLoadFields)
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f == "" {
			return fmt.Errorf("empty field name")
		}
		if seen[f] {
			return fmt.Errorf("duplicate field name %q", f)
		}
		seen[f] = true
	}
	// The finest-level domain extent must not overflow box arithmetic.
	scale := math.Pow(float64(refFactor), float64(maxLevel))
	for d := 0; d < 3; d++ {
		lo, hi := domain.Lo[d], domain.Hi[d]
		if lo < 0 || hi < lo {
			return fmt.Errorf("malformed domain %v", domain)
		}
		if float64(hi+1)*scale > maxLoadExtent {
			return fmt.Errorf("domain %v at refinement %d^%d exceeds representable extent",
				domain, refFactor, maxLevel)
		}
	}
	return nil
}

// validateGrid rejects a serialized grid that would violate the
// hierarchy's invariants (AddGrid panics on them; a corrupt stream
// must fail with an error instead). A duplicate ID is one h already
// holds: Load keeps the ID counter above every restored ID, so the IDs
// AddGrid hands out on the way never collide with one.
func (h *Hierarchy) validateGrid(cg *checkpointGrid, hdr *checkpointHeader) error {
	if cg.ID < 0 || h.byID[cg.ID] != nil {
		return fmt.Errorf("invalid or duplicate grid ID %d", cg.ID)
	}
	if cg.Level < 0 || cg.Level > hdr.MaxLevel {
		return fmt.Errorf("level %d outside [0,%d]", cg.Level, hdr.MaxLevel)
	}
	if cg.Box.Empty() {
		return fmt.Errorf("empty box %v", cg.Box)
	}
	if !h.DomainAt(cg.Level).ContainsBox(cg.Box) {
		return fmt.Errorf("box %v escapes the level-%d domain %v", cg.Box, cg.Level, h.DomainAt(cg.Level))
	}
	if cg.Owner < 0 {
		return fmt.Errorf("negative owner %d", cg.Owner)
	}
	if cg.Level == 0 {
		if cg.Parent != NoGrid {
			return fmt.Errorf("level-0 grid claims parent %d", cg.Parent)
		}
	} else {
		p := h.byID[cg.Parent]
		if p == nil {
			return fmt.Errorf("parent %d not yet defined (grids must be saved level by level)", cg.Parent)
		}
		if p.Level != cg.Level-1 {
			return fmt.Errorf("parent %d is at level %d, not %d", cg.Parent, p.Level, cg.Level-1)
		}
	}
	if cg.Data != nil {
		if !hdr.WithData {
			return fmt.Errorf("field data present in a plan-only checkpoint")
		}
		if len(cg.Data) != len(hdr.Fields) {
			return fmt.Errorf("%d data fields, header declares %d", len(cg.Data), len(hdr.Fields))
		}
		want := cg.Box.Grow(hdr.NGhost).NumCells()
		for fi, d := range cg.Data {
			if int64(len(d)) != want {
				return fmt.Errorf("field %q has %d values, box %v with %d ghosts needs %d",
					hdr.Fields[fi], len(d), cg.Box, hdr.NGhost, want)
			}
		}
	}
	return nil
}

// Load reconstructs a hierarchy from a stream written by Save. Grid
// IDs, owners, parent links and field data are preserved exactly.
// Corrupt streams — truncated data, absurd headers, out-of-domain
// boxes, dangling parents, duplicate IDs, mis-shaped field data — are
// rejected with a descriptive error; Load never panics on bad input.
func Load(r io.Reader) (*Hierarchy, error) {
	dec := gob.NewDecoder(r)
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("amr.Load: header: %w", err)
	}
	if err := CheckShape(hdr.Domain, hdr.RefFactor, hdr.MaxLevel, hdr.NGhost, hdr.Fields); err != nil {
		return nil, fmt.Errorf("amr.Load: corrupt header: %w", err)
	}
	if hdr.NumGrids < 0 || hdr.NumGrids > maxLoadGrids {
		return nil, fmt.Errorf("amr.Load: corrupt header: grid count %d outside [0,%d]", hdr.NumGrids, maxLoadGrids)
	}
	h := New(hdr.Domain, hdr.RefFactor, hdr.MaxLevel, hdr.NGhost, hdr.WithData, hdr.Fields...)
	h.byID = make(map[GridID]*Grid, hdr.NumGrids)
	for i := 0; i < hdr.NumGrids; i++ {
		var cg checkpointGrid
		if err := dec.Decode(&cg); err != nil {
			return nil, fmt.Errorf("amr.Load: grid %d: %w", i, err)
		}
		if err := h.validateGrid(&cg, &hdr); err != nil {
			return nil, fmt.Errorf("amr.Load: corrupt grid %d: %w", i, err)
		}
		// Grids were saved level by level, so parents precede children
		// and AddGrid's parent check holds. Restore exact IDs.
		g := h.AddGrid(cg.Level, cg.Box, cg.Owner, cg.Parent)
		if g.ID != cg.ID {
			// Re-key: checkpoint IDs are authoritative.
			delete(h.byID, g.ID)
			g.ID = cg.ID
			h.byID[g.ID] = g
			if cg.ID >= h.nextID {
				h.nextID = cg.ID + 1
			}
		}
		if hdr.WithData && cg.Data != nil {
			for fi, f := range hdr.Fields {
				copy(g.Patch.Field(f), cg.Data[fi])
			}
		}
	}
	if err := h.CheckProperNesting(); err != nil {
		return nil, fmt.Errorf("amr.Load: checkpoint violates nesting: %w", err)
	}
	return h, nil
}
