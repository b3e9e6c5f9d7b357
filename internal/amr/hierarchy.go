// Package amr implements the structured AMR grid hierarchy of
// Berger–Colella SAMR as used by ENZO: a tree of rectangular grids
// over refinement levels, with per-level subcycled time steps,
// regridding driven by flagged cells, ghost-zone exchange between
// sibling grids and between parents and children, and restriction of
// fine solutions onto their parents.
//
// The hierarchy also carries the distribution state the DLB schemes
// manipulate: every grid has an owning processor, and the exchange
// plan distinguishes local (same-group) from remote (cross-group)
// messages.
package amr

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
)

// GridID identifies a grid uniquely within a hierarchy for its whole
// lifetime.
type GridID int

// NoGrid is the parent of level-0 grids.
const NoGrid GridID = -1

// Grid is one rectangular patch of the hierarchy.
type Grid struct {
	ID    GridID
	Level int
	// Box is the grid's interior region in its level's index space.
	Box geom.Box
	// Owner is the processor that holds and advances the grid.
	Owner int
	// Parent is the grid one level coarser whose region contains this
	// grid (NoGrid at level 0).
	Parent GridID
	// Patch holds the field data (nil in plan-only hierarchies, and
	// once a regrid has retired the grid).
	Patch *grid.Patch

	// pos is the grid's current position in its level list, maintained
	// by the hierarchy. The spatial index orders query results by it so
	// plan builders visit candidates in level-list order — grid IDs
	// cannot serve here because SortLevel reorders levels by box
	// position, not ID.
	pos int
}

// NumCells returns the grid's interior cell count.
func (g *Grid) NumCells() int64 { return g.Box.NumCells() }

// Bytes returns the migration size of the grid: interior cells times
// fields times 8 bytes (ghosts are rebuilt at the destination).
func (g *Grid) Bytes(numFields int) int64 {
	return g.Box.NumCells() * int64(numFields) * 8
}

// Listener observes the hierarchy's structural and ownership
// mutations, one call per grid per event. The load ledger subscribes
// to maintain its aggregates in O(changes) instead of re-walking the
// tree; tests subscribe to audit event completeness.
//
// Contract: GridAdded fires after the grid is fully inserted;
// GridRemoved fires just after the grid left the hierarchy, while its
// ancestor chain is still present (children are always removed before
// their parents) — the removed grid's own fields stay readable on g.
// OwnerChanged and ParentChanged fire after the field has been
// updated, passing the previous value.
type Listener interface {
	GridAdded(h *Hierarchy, g *Grid)
	GridRemoved(h *Hierarchy, g *Grid)
	OwnerChanged(h *Hierarchy, g *Grid, oldOwner int)
	ParentChanged(h *Hierarchy, g *Grid, oldParent GridID)
}

// Hierarchy is the SAMR grid tree.
type Hierarchy struct {
	// Domain is the level-0 problem domain.
	Domain geom.Box
	// RefFactor is the refinement factor between adjacent levels.
	RefFactor int
	// MaxLevel is the deepest allowed level (0 = unigrid).
	MaxLevel int
	// NGhost is the ghost width of every patch.
	NGhost int
	// Fields are the field names allocated on every patch.
	Fields []string
	// WithData controls whether grids carry real patches. Plan-only
	// hierarchies (WithData false) are used by tests and by fast
	// experiment sweeps where only box/owner geometry matters.
	WithData bool

	levels [][]*Grid
	byID   map[GridID]*Grid
	nextID GridID

	// gen[l] is level l's structure generation: AddGrid, RemoveGrid,
	// setParent, SortLevel and ClearLevelsFrom bump it, and nothing else
	// does. own[l] is its ownership generation, bumped by SetOwner only.
	// Level l's plans read the structure of levels l and l−1 only, so
	// plans[l] is valid while gen[l] and gen[l−1] hold the values it is
	// stamped with, index[l] while gen[l] does, and kids[l], level l's
	// child table, while gen[l+1] does; a stale one is rebuilt whole on
	// its next use. The processor-pair tables of plans[l] also read the
	// owners of levels l and l−1, and are dropped alone when own[l] or
	// own[l−1] moves.
	gen, own []uint64
	plans    []planCache
	index    []*levelIndex
	kids     []*childTable
	// planMu guards gen, own, plans, index, kids and the pair-table
	// scratch: mpx ranks build plans lazily from concurrent goroutines.
	// Execution reads the immutable plan after the lock is released.
	planMu sync.Mutex
	// pairs is the aggregation scratch of the processor-pair tables.
	pairs pairTable

	// pool executes the cached fill/restrict/regrid data motion (safe
	// in parallel: the plans partition writes by destination patch);
	// nil runs it inline.
	pool *solver.Pool
	// dataCheck re-runs every planned fill/restrict against the
	// scan-based baseline and panics on bitwise divergence (the
	// -check=data oracle).
	dataCheck bool
	// planCheck re-derives every served plan with the O(n²) scan
	// planners and panics on bitwise divergence (the -check=plan
	// oracle).
	planCheck bool

	listener Listener

	// regridArena holds RegridAll's query answers (each cluster box's
	// parents, then each new child's sources). It is cleared after every
	// use, so it keeps no grid alive, and kept for its capacity.
	regridArena []*Grid

	// names are Fields sorted, the field list every patch shares.
	names []string
	// spares is the field storage of the grids regrids retired, by
	// grown-cell count, for AddGrid to give to new grids: spares[0]
	// what the running regrid released, spares[1] what the last one
	// did (see RegridAll).
	spares [2]map[int][][][]float64
}

// SetPool attaches a worker pool for parallel execution of the data
// motion plans (nil reverts to sequential execution).
func (h *Hierarchy) SetPool(p *solver.Pool) { h.pool = p }

// SetDataCheck toggles the planned-vs-scan byte-identity oracle.
// Every fill and restriction run through CheckFill or CheckRestrict,
// in memory or on the tcp wire, then does the data motion twice and
// compares — for tests and -check=data runs only.
func (h *Hierarchy) SetDataCheck(on bool) { h.dataCheck = on }

// SetPlanCheck toggles the indexed-vs-scan plan oracle. Every served
// plan is then re-derived with the retained O(n²) scan planners and
// compared bitwise — for tests and -check=plan runs only.
func (h *Hierarchy) SetPlanCheck(on bool) { h.planCheck = on }

// SetListener subscribes l to the hierarchy's mutation events (nil
// unsubscribes). Only one listener is supported; the engine installs
// the load ledger.
func (h *Hierarchy) SetListener(l Listener) { h.listener = l }

// SetOwner reassigns a grid to a processor, notifying the listener.
// All ownership changes (migration, redistribution, repartitioning)
// must go through here so incremental load bookkeeping and the cached
// processor-pair tables stay exact.
func (h *Hierarchy) SetOwner(g *Grid, owner int) {
	if g.Owner == owner {
		return
	}
	old := g.Owner
	g.Owner = owner
	h.planMu.Lock()
	h.own[g.Level]++
	h.planMu.Unlock()
	if h.listener != nil {
		h.listener.OwnerChanged(h, g, old)
	}
}

// setParent re-links a grid under a new parent (NoGrid detaches),
// notifying the listener so subtree aggregates can follow the move.
func (h *Hierarchy) setParent(g *Grid, parent GridID) {
	if g.Parent == parent {
		return
	}
	old := g.Parent
	g.Parent = parent
	h.bumpGen(g.Level)
	if h.listener != nil {
		h.listener.ParentChanged(h, g, old)
	}
}

// New creates an empty hierarchy.
func New(domain geom.Box, refFactor, maxLevel, nghost int, withData bool, fields ...string) *Hierarchy {
	if domain.Empty() {
		panic("amr.New: empty domain")
	}
	if refFactor < 2 {
		panic("amr.New: refinement factor must be >= 2")
	}
	if maxLevel < 0 {
		panic("amr.New: negative max level")
	}
	h := &Hierarchy{
		Domain:    domain,
		RefFactor: refFactor,
		MaxLevel:  maxLevel,
		NGhost:    nghost,
		Fields:    append([]string(nil), fields...),
		names:     slices.Clone(fields),
		WithData:  withData,
		levels:    make([][]*Grid, maxLevel+1),
		byID:      make(map[GridID]*Grid),
		gen:       make([]uint64, maxLevel+1),
		own:       make([]uint64, maxLevel+1),
		plans:     make([]planCache, maxLevel+1),
		index:     make([]*levelIndex, maxLevel+1),
		kids:      make([]*childTable, maxLevel),
	}
	slices.Sort(h.names)
	return h
}

// bumpGen records a structural mutation of level l.
func (h *Hierarchy) bumpGen(l int) {
	h.planMu.Lock()
	h.gen[l]++
	h.planMu.Unlock()
}

// DomainAt returns the problem domain in level-l index space.
func (h *Hierarchy) DomainAt(l int) geom.Box {
	b := h.Domain
	for i := 0; i < l; i++ {
		b = b.Refine(h.RefFactor)
	}
	return b
}

// NumLevels returns the number of levels that currently hold grids.
func (h *Hierarchy) NumLevels() int {
	n := 0
	for l, gs := range h.levels {
		if len(gs) > 0 {
			n = l + 1
		}
	}
	return n
}

// Grids returns the grids at level l in a stable order (ascending ID).
func (h *Hierarchy) Grids(l int) []*Grid {
	if l < 0 || l >= len(h.levels) {
		return nil
	}
	return h.levels[l]
}

// Grid returns the grid with the given ID, or nil.
func (h *Hierarchy) Grid(id GridID) *Grid {
	return h.byID[id]
}

// NextID returns the ID the next AddGrid will assign. Grid IDs break
// ties in DLB decisions, so resumable checkpoints must preserve the
// counter — Load alone only advances it past the highest live ID,
// which loses the gap left by removed grids.
func (h *Hierarchy) NextID() GridID { return h.nextID }

// SetNextID raises the ID counter to n (restore only; values at or
// below the current counter are ignored so IDs can never collide).
func (h *Hierarchy) SetNextID(n GridID) {
	if n > h.nextID {
		h.nextID = n
	}
}

// AddGrid creates a grid at the given level. The box must be non-empty
// and within the level's domain. When the hierarchy carries data the
// grid gets a zeroed patch: spare storage of its exact length when a
// regrid left some (its ghosts must read zero until the next fill,
// and Save writes them), fresh storage otherwise.
func (h *Hierarchy) AddGrid(level int, box geom.Box, owner int, parent GridID) *Grid {
	if level < 0 || level > h.MaxLevel {
		panic(fmt.Sprintf("amr.AddGrid: level %d out of range", level))
	}
	if box.Empty() {
		panic("amr.AddGrid: empty box")
	}
	if !h.DomainAt(level).ContainsBox(box) {
		panic(fmt.Sprintf("amr.AddGrid: box %v escapes level-%d domain %v", box, level, h.DomainAt(level)))
	}
	if level > 0 && h.byID[parent] == nil {
		panic("amr.AddGrid: fine grid needs a parent")
	}
	g := &Grid{ID: h.nextID, Level: level, Box: box, Owner: owner, Parent: parent}
	h.nextID++
	if h.WithData {
		n := int(box.Grow(h.NGhost).NumCells())
		data := h.takeSpare(n)
		if data == nil {
			data = make([][]float64, len(h.names))
			for k := range data {
				data[k] = make([]float64, n)
			}
		}
		g.Patch = grid.PatchOver(box, level, h.NGhost, h.names, data)
	}
	g.pos = len(h.levels[level])
	h.levels[level] = append(h.levels[level], g)
	h.byID[g.ID] = g
	h.bumpGen(level)
	if h.listener != nil {
		h.listener.GridAdded(h, g)
	}
	return g
}

// takeSpare returns zeroed spare storage of n cells per field, the
// older generation's first, or nil when there is none.
func (h *Hierarchy) takeSpare(n int) [][]float64 {
	for i := len(h.spares) - 1; i >= 0; i-- {
		if s := h.spares[i][n]; len(s) > 0 {
			data := s[len(s)-1]
			s[len(s)-1] = nil
			h.spares[i][n] = s[:len(s)-1]
			for _, f := range data {
				clear(f)
			}
			return data
		}
	}
	return nil
}

// retire hands the storage of an old level's grids (oli, the index
// built over the level before it was cleared; nil retires nothing) to
// the spares of the running regrid, and drops each grid's Patch, so a
// stale reader fails instead of reading a new grid's cells.
func (h *Hierarchy) retire(oli *levelIndex) {
	if oli == nil {
		return
	}
	if h.spares[0] == nil {
		h.spares[0] = make(map[int][][][]float64)
	}
	for _, g := range oli.grids {
		n := int(g.Patch.Grown().NumCells())
		h.spares[0][n] = append(h.spares[0][n], g.Patch.Storage())
		g.Patch = nil
	}
}

// ageSpares ends a regrid's use of the spares: what the last regrid
// released goes, and what this one released is trimmed, per length, to
// the number of grids of that length on levels base+1 and deeper, the
// most the next regrid can ask for if it rebuilds the same shapes. It
// becomes the older generation.
func (h *Hierarchy) ageSpares(base int) {
	clear(h.spares[1])
	fresh := h.spares[0]
	h.spares[0], h.spares[1] = h.spares[1], fresh
	if len(fresh) == 0 {
		return
	}
	want := make(map[int]int, len(fresh))
	for l := base + 1; l <= h.MaxLevel; l++ {
		for _, g := range h.levels[l] {
			want[int(g.Patch.Grown().NumCells())]++
		}
	}
	for n, s := range fresh {
		if k := want[n]; k < len(s) {
			clear(s[k:])
			fresh[n] = s[:k]
		}
	}
}

// RemoveGrid deletes a grid (its children must already be gone).
func (h *Hierarchy) RemoveGrid(id GridID) {
	g := h.byID[id]
	if g == nil {
		return
	}
	for _, c := range h.Grids(g.Level + 1) {
		if c.Parent == id {
			panic(fmt.Sprintf("amr.RemoveGrid: grid %d still has child %d", id, c.ID))
		}
	}
	lv := h.levels[g.Level]
	i := g.pos
	if i >= len(lv) || lv[i] != g {
		panic(fmt.Sprintf("amr.RemoveGrid: grid %d is not at its recorded position %d of level %d", id, i, g.Level))
	}
	lv = append(lv[:i], lv[i+1:]...)
	h.levels[g.Level] = lv
	for j := i; j < len(lv); j++ {
		lv[j].pos = j
	}
	delete(h.byID, id)
	h.bumpGen(g.Level)
	if h.listener != nil {
		h.listener.GridRemoved(h, g)
	}
}

// ClearLevelsFrom removes every grid at level l and deeper (used by
// regridding, which rebuilds fine levels from scratch).
func (h *Hierarchy) ClearLevelsFrom(l int) {
	// Deepest level first, so every grid's removal event fires while
	// its parent chain is still intact (the Listener contract). Each
	// grid leaves the level list and ID map before its event fires, so
	// a listener always observes a self-consistent hierarchy.
	for lv := h.MaxLevel; lv >= l; lv-- {
		h.bumpGen(lv)
		h.releasePlans(lv)
		for len(h.levels[lv]) > 0 {
			n := len(h.levels[lv])
			g := h.levels[lv][n-1]
			h.levels[lv] = h.levels[lv][:n-1]
			delete(h.byID, g.ID)
			if h.listener != nil {
				h.listener.GridRemoved(h, g)
			}
		}
		h.levels[lv] = nil
	}
}

// TotalCells returns the cell count of level l.
func (h *Hierarchy) TotalCells(l int) int64 {
	var n int64
	for _, g := range h.Grids(l) {
		n += g.NumCells()
	}
	return n
}

// Boxes returns the boxes of level l.
func (h *Hierarchy) Boxes(l int) geom.BoxList {
	gs := h.Grids(l)
	out := make(geom.BoxList, len(gs))
	for i, g := range gs {
		out[i] = g.Box
	}
	return out
}

// Children returns the grids at g.Level+1 whose parent is g, in
// level-list order. It binary-searches level g.Level's child table, so
// moving a subtree costs its size, not a scan of the next level per
// grid. The slice is shared: callers must not write it.
func (h *Hierarchy) Children(g *Grid) []*Grid {
	if g.Level >= h.MaxLevel {
		return nil
	}
	h.planMu.Lock()
	kids := h.childTableFor(g.Level).kids
	h.planMu.Unlock()
	lo, _ := slices.BinarySearchFunc(kids, g.ID, func(c *Grid, id GridID) int { return cmp.Compare(c.Parent, id) })
	hi := lo
	for hi < len(kids) && kids[hi].Parent == g.ID {
		hi++
	}
	return kids[lo:hi:hi]
}

// childTable is level l+1's grid list sorted by parent ID, then by
// level-list position. It reads nothing of level l, so it stays valid
// while level l+1's structure does (a parent link moving bumps that
// level's generation), and it is never written once built.
type childTable struct {
	fineGen uint64
	kids    []*Grid
}

// childTableFor returns level l's child table, rebuilding it when level
// l+1's structure changed since it was built. Callers must hold planMu.
func (h *Hierarchy) childTableFor(l int) *childTable {
	if ct := h.kids[l]; ct != nil && ct.fineGen == h.gen[l+1] {
		return ct
	}
	ct := &childTable{fineGen: h.gen[l+1], kids: slices.Clone(h.levels[l+1])}
	slices.SortFunc(ct.kids, func(a, b *Grid) int {
		if a.Parent != b.Parent {
			return cmp.Compare(a.Parent, b.Parent)
		}
		return a.pos - b.pos
	})
	h.kids[l] = ct
	return ct
}

// CheckProperNesting verifies the SAMR structural invariants: level-l
// grids are disjoint and inside the domain, and every level-(l+1) grid
// references a parent on level l that contains it — which also puts it
// inside the refined union of level l, so that is not checked again.
//
// Overlap is answered by the level's spatial index, each grid's
// buckets scanned once: O(n) per level, no allocation once the index is
// current. The answer is exact while every Grid.Box was written by
// AddGrid, which production guarantees (the index then belongs to the
// current structure generation). A box written in place after the
// index was built is still caught whenever it overlaps a grid whose box
// did not move, because the scan covers the buckets under the box as it
// is now; only two boxes moved in place onto each other can escape.
func (h *Hierarchy) CheckProperNesting() error {
	for l := 0; l <= h.MaxLevel; l++ {
		li := h.currentIndex(l)
		for _, g := range h.levels[l] {
			if li.overlapsOther(g) {
				return fmt.Errorf("level %d grids overlap", l)
			}
		}
		dom := h.DomainAt(l)
		for _, g := range h.Grids(l) {
			if !dom.ContainsBox(g.Box) {
				return fmt.Errorf("grid %d escapes level-%d domain", g.ID, l)
			}
			if l == 0 {
				continue
			}
			p := h.Grid(g.Parent)
			if p == nil {
				return fmt.Errorf("grid %d at level %d has no parent", g.ID, l)
			}
			if p.Level != l-1 {
				return fmt.Errorf("grid %d parent at wrong level %d", g.ID, p.Level)
			}
			if !p.Box.ContainsBox(g.Box.Coarsen(h.RefFactor)) {
				return fmt.Errorf("grid %d not nested in parent %d", g.ID, p.ID)
			}
		}
	}
	return nil
}

// SplitGrid splits grid g along dimension d at plane `at` into two
// grids that tile the original. Children straddling the cut are split
// first (recursively, so grandchildren follow), then every child is
// re-parented to the half that contains it — proper nesting holds at
// every moment. Field data is copied; the new grids inherit the
// owner, callers reassign afterwards. Returns the two halves.
func (h *Hierarchy) SplitGrid(g *Grid, d, at int) (*Grid, *Grid) {
	if at <= g.Box.Lo[d] || at > g.Box.Hi[d] {
		panic(fmt.Sprintf("amr.SplitGrid: cut %d outside box %v dim %d", at, g.Box, d))
	}
	// A child whose box crosses the corresponding fine plane cannot be
	// nested in either half: split it first. Its halves do not cross the
	// plane, so one pass over the children as they stand splits every
	// child that does, in level order (Children's slice is not written
	// when the splits replace the child table).
	fineAt := at * h.RefFactor
	for _, c := range h.Children(g) {
		if c.Box.Lo[d] < fineAt && c.Box.Hi[d] >= fineAt {
			h.SplitGrid(c, d, fineAt)
		}
	}
	loBox, hiBox := g.Box.SplitAt(d, at)
	children := h.Children(g)
	// Detach children so RemoveGrid succeeds; re-parent below.
	for _, c := range children {
		h.setParent(c, NoGrid)
	}
	h.RemoveGrid(g.ID)
	lo := h.AddGrid(g.Level, loBox, g.Owner, g.Parent)
	hi := h.AddGrid(g.Level, hiBox, g.Owner, g.Parent)
	if h.WithData && g.Patch != nil {
		for _, f := range h.Fields {
			grid.CopyRegion(lo.Patch, g.Patch, f, loBox)
			grid.CopyRegion(hi.Patch, g.Patch, f, hiBox)
		}
	}
	for _, c := range children {
		if loBox.ContainsBox(c.Box.Coarsen(h.RefFactor)) {
			h.setParent(c, lo.ID)
		} else {
			h.setParent(c, hi.ID)
		}
	}
	return lo, hi
}

// SortLevel orders the grids of level l by box position, giving runs
// a deterministic grid order regardless of creation history. The
// level list is every plan's iteration order, so a reorder is a
// structural mutation like any other.
func (h *Hierarchy) SortLevel(l int) {
	gs := h.levels[l]
	sort.Slice(gs, func(i, j int) bool {
		a, b := gs[i].Box.Lo, gs[j].Box.Lo
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return gs[i].ID < gs[j].ID
	})
	for i, g := range gs {
		g.pos = i
	}
	h.bumpGen(l)
}

// FlagFieldFor returns a flag field spanning level l's grids (their
// bounding box), for the regridder to fill.
func (h *Hierarchy) FlagFieldFor(l int) *cluster.FlagField {
	bb := h.Boxes(l).Bounding()
	if bb.Empty() {
		return nil
	}
	return cluster.NewFlagField(bb)
}

// Summary describes the hierarchy's shape at a glance.
type Summary struct {
	Levels     int
	Grids      []int   // per level
	Cells      []int64 // per level
	TotalCells int64
	// CoverageFraction[l] is Cells[l] / level-l domain cells.
	CoverageFraction []float64
}

// Summarize computes the hierarchy's current shape.
func (h *Hierarchy) Summarize() Summary {
	s := Summary{Levels: h.NumLevels()}
	for l := 0; l <= h.MaxLevel; l++ {
		cells := h.TotalCells(l)
		s.Grids = append(s.Grids, len(h.Grids(l)))
		s.Cells = append(s.Cells, cells)
		s.TotalCells += cells
		s.CoverageFraction = append(s.CoverageFraction,
			float64(cells)/float64(h.DomainAt(l).NumCells()))
	}
	return s
}

func (s Summary) String() string {
	out := fmt.Sprintf("hierarchy: %d levels, %d cells total\n", s.Levels, s.TotalCells)
	for l := 0; l < len(s.Grids); l++ {
		out += fmt.Sprintf("  level %d: %4d grids %9d cells (%.1f%% of domain)\n",
			l, s.Grids[l], s.Cells[l], 100*s.CoverageFraction[l])
	}
	return out
}
