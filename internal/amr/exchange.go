package amr

import (
	"slices"
	"sync"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// MsgKind classifies an inter-grid transfer.
type MsgKind int

// Transfer kinds: sibling ghost exchange at one level, prolongation
// from a parent into child ghost cells, and restriction of a child
// solution onto its parent.
const (
	SiblingGhost MsgKind = iota
	ParentProlong
	ChildRestrict
)

func (k MsgKind) String() string {
	switch k {
	case SiblingGhost:
		return "sibling-ghost"
	case ParentProlong:
		return "parent-prolong"
	case ChildRestrict:
		return "child-restrict"
	default:
		return "unknown"
	}
}

// Message is one inter-grid transfer of the exchange plan. Src and
// Dst identify grids; the engine maps them to processors and links.
type Message struct {
	Src, Dst GridID
	Bytes    int64
	Kind     MsgKind
}

// Transfer is one movement the cost model charges between two
// processors: a plan's messages from Src to Dst coalesced, or one grid
// migration.
type Transfer struct {
	Src, Dst int
	Bytes    int64
}

// planKind names the parts of a level's plan-cache entry, as a set.
type planKind uint8

const (
	planMsg planKind = 1 << iota
	planFill
	planRestrict
	planInterface
	planGhostXfer
	planRestrictXfer

	// planXfer is the kinds that read owners as well as structure.
	planXfer = planGhostXfer | planRestrictXfer
)

// planCache is a level's plan-cache entry — the cost-model message
// lists and their processor-pair tables, the concrete data-motion plans
// and the coarse–fine interface plan — valid for the structure
// generations it is stamped with (see Hierarchy.gen). The plans are
// keyed by grid identity and boxes; the mpx execution resolves owners
// when it routes the messages. Only the pair tables read owners, and
// they carry the ownership generations they were built at as well. Each
// kind is built lazily on first use, and a slice handed out is never
// written again.
type planCache struct {
	// gen and coarseGen are the generations of levels l and l−1 the
	// entry was built at, own and coarseOwn their ownership generations
	// when the pair tables were.
	gen, coarseGen uint64
	own, coarseOwn uint64
	// built is the set of kinds built so far.
	built planKind

	ghost, restrict []Message
	// ghostXfer and restrictXfer are ghost and restrict coalesced per
	// processor pair (see aggregate).
	ghostXfer, restrictXfer []Transfer
	fill                    []fillDest
	// restrictData is the grouped-by-parent restriction plan.
	restrictData []restrictDest
	// iface is the interface plan between this level and the next
	// coarser one (see reflux.go).
	iface *interfacePlan
}

// releasePlans drops the plans and the index of level l, which the
// caller has just made stale, keeping what the next refresh reads from
// a stale entry: the kinds it had built. They would be rebuilt on their
// next use either way; dropped here, a collection that runs during the
// regrid in between does not mark them, and what it marks sets how far
// the heap grows before the next one: a data run's peak RSS falls by a
// fifth.
func (h *Hierarchy) releasePlans(l int) {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	c := &h.plans[l]
	*c = planCache{gen: c.gen, coarseGen: c.coarseGen, built: c.built}
	h.index[l] = nil
}

// refreshPlans brings level l's cache entry up to date and returns it.
// A stale entry is reset and the plans it held are rebuilt along with
// the requested ones — all under this one critical section, so a
// caller reading several plan kinds from the entry always sees them
// coherent with each other and with the current structure. The pair
// tables are built only on request, and an entry whose structure is
// current but whose owners moved loses them alone. Callers hold planMu.
func (h *Hierarchy) refreshPlans(l int, need planKind) *planCache {
	c := &h.plans[l]
	gen, coarseGen := h.gen[l], uint64(0)
	own, coarseOwn := h.own[l], uint64(0)
	if l > 0 {
		coarseGen, coarseOwn = h.gen[l-1], h.own[l-1]
	}
	if c.gen != gen || c.coarseGen != coarseGen {
		need |= c.built &^ planXfer
		*c = planCache{gen: gen, coarseGen: coarseGen}
	} else if c.own != own || c.coarseOwn != coarseOwn {
		c.built &^= planXfer
		c.ghostXfer, c.restrictXfer = nil, nil
	}
	if need&planXfer != 0 {
		need |= planMsg
	}
	need &^= c.built
	if need&planMsg != 0 {
		c.ghost = h.buildGhostPlan(l, false)
		c.restrict = h.RestrictPlan(l, false)
	}
	// The two tables are built apart: a local balance usually moves an
	// owner between a level's ghost charge and its restrict charge.
	if need&planXfer != 0 {
		n := h.ownerSpan(l)
		if need&planGhostXfer != 0 {
			c.ghostXfer = h.aggregate(c.ghost, n)
		}
		if need&planRestrictXfer != 0 {
			c.restrictXfer = h.aggregate(c.restrict, n)
		}
		c.own, c.coarseOwn = own, coarseOwn
	}
	if need&planFill != 0 {
		c.fill = h.buildFillPlan(l)
	}
	if need&planRestrict != 0 {
		c.restrictData = h.buildRestrictDataPlan(l)
	}
	if need&planInterface != 0 {
		c.iface = h.buildInterfacePlan(l, h.indexFor(l), h.indexFor(l-1))
	}
	c.built |= need
	if h.planCheck {
		h.verifyPlans(l, c)
	}
	return c
}

// planScratch holds the per-destination working storage of the plan
// builders — candidate lists, box decompositions and a chunk's message
// blocks — pooled so plan rebuilds stop allocating per grid.
type planScratch struct {
	cand, cand2    []*Grid
	ghost, covered geom.BoxList
	rem, tmp       geom.BoxList
	// left is a fill destination's ghost cells no sibling covers, ops
	// its work list.
	left geom.BoxList
	ops  []fillOp
	// blocks hold a ghost-plan chunk's messages in order; block is
	// the one kept for the next chunk.
	blocks [][]Message
	block  []Message
}

// planChunk is the fewest destination grids a plan builder gives one
// pool task: a chunk is a few hundred microseconds of planning, far
// above what a task costs to start.
const planChunk = 64

// A ghost-plan chunk collects its messages in blocks of up to
// maxMsgBlock messages (128 KiB), each twice the last, and closes a
// block when fewer than destMsgs slots are left, about what one
// destination sends. A pooled planScratch keeps its last block.
const (
	maxMsgBlock = 1 << 12
	destMsgs    = 64
)

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

func getPlanScratch() *planScratch  { return planScratchPool.Get().(*planScratch) }
func putPlanScratch(s *planScratch) { planScratchPool.Put(s) }

// GhostPlanCached returns GhostPlan(l, false), memoised until the
// structure of level l or l−1 changes. Callers must not mutate the
// returned slice.
func (h *Hierarchy) GhostPlanCached(l int) []Message {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planMsg).ghost
}

// GhostTransfers returns GhostPlanCached(l) coalesced per processor
// pair, memoised until the structure or the owners of level l or l−1
// change. Callers must not mutate the returned slice.
func (h *Hierarchy) GhostTransfers(l int) []Transfer {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planGhostXfer).ghostXfer
}

// RestrictTransfers returns RestrictPlan(l, false) coalesced per
// processor pair, memoised like GhostTransfers. The restrict plan is
// built alongside the ghost plan under the same critical section, so a
// structural mutation between the two calls can never surface a stale
// or missing restrict table.
func (h *Hierarchy) RestrictTransfers(l int) []Transfer {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.refreshPlans(l, planRestrictXfer).restrictXfer
}

// ownerSpan is one more than the largest owner of a grid on level l or
// l−1, the levels a level-l message plan names grids of.
func (h *Hierarchy) ownerSpan(l int) int {
	n := 0
	for _, lv := range h.levels[max(l-1, 0) : l+1] {
		for _, g := range lv {
			n = max(n, g.Owner+1)
		}
	}
	return n
}

// aggregate coalesces a message plan per (src proc, dst proc) pair —
// one latency per pair, bytes summed, matching message coalescing in
// real SAMR codes — into a new table in (src, dst) order. Messages
// between grids of one processor move nothing. Every owner the plan
// names is below n. Callers hold planMu.
func (h *Hierarchy) aggregate(msgs []Message, n int) []Transfer {
	if len(msgs) == 0 {
		return nil
	}
	// pairSlot[src·n+dst] is one more than the pair's position in pairs,
	// zero while unseen; the entries used are zeroed again below.
	if len(h.pairSlot) < n*n {
		h.pairSlot = make([]int32, n*n)
	}
	pairs := h.pairBuf[:0]
	// A sibling seen through several ghost slabs, and the children of
	// one parent, are consecutive in a plan: owners and the pair's slot
	// are resolved once per run of equal Dst and of equal (Src, Dst).
	// slot < 0 marks a run whose two grids share a processor.
	dst, slot := 0, -1
	for i, m := range msgs {
		newDst := i == 0 || m.Dst != msgs[i-1].Dst
		if newDst {
			dst = h.Grid(m.Dst).Owner
		}
		if newDst || m.Src != msgs[i-1].Src {
			slot = -1
			if src := h.Grid(m.Src).Owner; src != dst {
				at := &h.pairSlot[src*n+dst]
				if *at == 0 {
					pairs = append(pairs, Transfer{Src: src, Dst: dst})
					*at = int32(len(pairs))
				}
				slot = int(*at) - 1
			}
		}
		if slot >= 0 {
			pairs[slot].Bytes += m.Bytes
		}
	}
	for _, p := range pairs {
		h.pairSlot[p.Src*n+p.Dst] = 0
	}
	h.pairBuf = pairs
	// Deterministic accumulation order (the keys are unique): the
	// per-processor float sums, and every DLB decision after, depend on it.
	slices.SortFunc(pairs, byPair)
	return slices.Clone(pairs)
}

// byPair orders transfers by (Src, Dst).
func byPair(a, b Transfer) int {
	if a.Src != b.Src {
		return a.Src - b.Src
	}
	return a.Dst - b.Dst
}

// GhostPlan returns the transfers required to fill the ghost zones of
// every level-l grid before a step: sibling overlaps at the same
// level, plus prolongation from the coarse level for ghost cells no
// sibling covers. Zero-byte and intra-grid entries are omitted; so
// are transfers where source and destination grids share a processor
// only if dropLocal is true.
//
// Sources are found through the level's spatial index — O(n·k) instead
// of the O(n²) all-pairs scan — in level-list order, so the result is
// byte-identical to GhostPlanScan.
func (h *Hierarchy) GhostPlan(l int, dropLocal bool) []Message {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	return h.buildGhostPlan(l, dropLocal)
}

// buildGhostPlan is GhostPlan for callers that hold planMu. The level's
// grids are cut into contiguous chunks planned over the pool, each into
// its own blocks, and the blocks are copied in chunk order into one
// exact-size plan: the serial plan, whatever the pool's width.
//
// A block is never regrown. Growing one list by append would cost ~5x
// its final length in garbage, and a level's first plan has no length
// to size it by.
func (h *Hierarchy) buildGhostPlan(l int, dropLocal bool) []Message {
	li := h.indexFor(l)
	dom := h.DomainAt(l)
	bytesPerCell := int64(len(h.Fields)) * 8
	grids := h.Grids(l)
	parts := make([]*planScratch, h.pool.Chunks(len(grids), planChunk))
	h.pool.ForChunks(len(grids), planChunk, func(c, lo, hi int) {
		scr := getPlanScratch()
		cur := scr.block[:0]
		for _, g := range grids[lo:hi] {
			if cap(cur)-len(cur) < destMsgs {
				scr.blocks = append(scr.blocks, cur)
				cur = make([]Message, 0, min(max(2*cap(cur), destMsgs), maxMsgBlock))
			}
			cur = h.appendGhostDest(cur, g, l, li, dom, bytesPerCell, dropLocal, scr)
		}
		scr.blocks = append(scr.blocks, cur)
		parts[c] = scr
	})
	n := 0
	for _, scr := range parts {
		for _, b := range scr.blocks {
			n += len(b)
		}
	}
	out := make([]Message, 0, n)
	for _, scr := range parts {
		for _, b := range scr.blocks {
			out = append(out, b...)
		}
		// Keep the last block, the longest, and drop the rest.
		scr.block = scr.blocks[len(scr.blocks)-1][:0]
		clear(scr.blocks)
		scr.blocks = scr.blocks[:0]
		putPlanScratch(scr)
	}
	return out
}

// appendGhostDest plans one destination grid's ghost messages,
// mirroring one iteration of the GhostPlanScan outer loop: the index
// supplies the overlapping siblings in level-list order, so surviving
// messages appear exactly as the scan emits them.
//
// The prolongation remainder is a count, not a box list. The slabs of
// the ghost shell are disjoint by construction and the grids of a level
// are disjoint (CheckProperNesting), so the sibling overlaps are
// pairwise disjoint pieces of the shell and what no sibling covers is
// the shell's cells minus theirs. GhostPlanScan subtracts the boxes and
// assumes neither, which is what lets -check=plan catch a level that
// overlaps.
func (h *Hierarchy) appendGhostDest(out []Message, g *Grid, l int, li *levelIndex, dom geom.Box, bytesPerCell int64, dropLocal bool, scr *planScratch) []Message {
	grown := g.Box.Grow(h.NGhost).Intersect(dom)
	scr.ghost = geom.SubtractAppend(scr.ghost[:0], grown, g.Box)
	remaining := grown.NumCells() - g.Box.NumCells()
	scr.cand = li.query(grown, scr.cand[:0])
	for _, s := range scr.cand {
		if s.ID == g.ID {
			continue
		}
		// A sibling on the destination's processor sends nothing but
		// still covers its share of the shell.
		drop := dropLocal && s.Owner == g.Owner
		for _, gb := range scr.ghost {
			ov := gb.Intersect(s.Box)
			if ov.Empty() {
				continue
			}
			cells := ov.NumCells()
			remaining -= cells
			if drop {
				continue
			}
			out = append(out, Message{
				Src: s.ID, Dst: g.ID,
				Bytes: cells * bytesPerCell,
				Kind:  SiblingGhost,
			})
		}
	}
	// Ghost cells no sibling holds come from the coarse level
	// (prolongation); attribute them to the parent grid.
	if l > 0 && remaining > 0 {
		p := h.Grid(g.Parent)
		if p != nil && (!dropLocal || p.Owner != g.Owner) {
			// Coarse data for r^3 fine ghost cells is one coarse
			// cell; the transfer moves the coarse footprint.
			r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
			coarseCells := (remaining + r3 - 1) / r3
			out = append(out, Message{
				Src: p.ID, Dst: g.ID,
				Bytes: coarseCells * bytesPerCell,
				Kind:  ParentProlong,
			})
		}
	}
	return out
}

// subtractList returns a \ union(bs) as disjoint boxes, ping-ponging
// between two pooled buffers instead of allocating the intermediate
// decompositions like geom.SubtractList. A box that misses a misses
// every piece of it and is skipped, which leaves the pieces as they
// were. The result aliases the scratch and is valid until its next use.
func subtractList(a geom.Box, bs geom.BoxList, scr *planScratch) geom.BoxList {
	cur, alt := append(scr.rem[:0], a), scr.tmp
	for _, b := range bs {
		if len(cur) == 0 {
			break
		}
		if !b.Intersects(a) {
			continue
		}
		alt = alt[:0]
		for _, r := range cur {
			alt = geom.SubtractAppend(alt, r, b)
		}
		cur, alt = alt, cur
	}
	scr.rem, scr.tmp = cur, alt
	return cur
}

// GhostPlanScan is the original O(grids²) all-pairs ghost planner,
// kept as the -plancheck baseline and for benchmarks. On a level whose
// grids are disjoint it produces exactly the same messages as GhostPlan;
// it subtracts the overlaps as boxes, so it is right on any level.
func (h *Hierarchy) GhostPlanScan(l int, dropLocal bool) []Message {
	var out []Message
	bytesPerCell := int64(len(h.Fields)) * 8
	dom := h.DomainAt(l)
	grids := h.Grids(l)
	for _, g := range grids {
		grown := g.Box.Grow(h.NGhost).Intersect(dom)
		ghost := geom.Subtract(grown, g.Box)
		var covered geom.BoxList
		for _, s := range grids {
			if s.ID == g.ID || !s.Box.Intersects(grown) {
				continue
			}
			for _, gb := range ghost {
				ov := gb.Intersect(s.Box)
				if ov.Empty() {
					continue
				}
				covered = append(covered, ov)
				if dropLocal && s.Owner == g.Owner {
					continue
				}
				out = append(out, Message{
					Src: s.ID, Dst: g.ID,
					Bytes: ov.NumCells() * bytesPerCell,
					Kind:  SiblingGhost,
				})
			}
		}
		if l == 0 {
			continue
		}
		var remaining int64
		for _, gb := range ghost {
			remaining += geom.SubtractList(gb, covered).NumCells()
		}
		if remaining > 0 {
			p := h.Grid(g.Parent)
			if p != nil && (!dropLocal || p.Owner != g.Owner) {
				r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
				coarseCells := (remaining + r3 - 1) / r3
				out = append(out, Message{
					Src: p.ID, Dst: g.ID,
					Bytes: coarseCells * bytesPerCell,
					Kind:  ParentProlong,
				})
			}
		}
	}
	return out
}

// RestrictPlan returns the transfers that project every level-l grid
// onto its parent after the level reaches its parent's physical time.
func (h *Hierarchy) RestrictPlan(l int, dropLocal bool) []Message {
	if l <= 0 {
		return nil
	}
	var out []Message
	bytesPerCell := int64(len(h.Fields)) * 8
	r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
	for _, g := range h.Grids(l) {
		p := h.Grid(g.Parent)
		if p == nil {
			continue
		}
		if dropLocal && p.Owner == g.Owner {
			continue
		}
		out = append(out, Message{
			Src: g.ID, Dst: p.ID,
			Bytes: g.NumCells() / r3 * bytesPerCell,
			Kind:  ChildRestrict,
		})
	}
	return out
}

// FillGhostsData performs the actual data motion of GhostPlan on the
// patches: copy sibling overlaps, prolong from the coarse level, and
// clamp-extrapolate at the physical domain boundary. It executes the
// cached data-motion plan (built once per hierarchy generation) in
// parallel over the attached pool; with the datacheck oracle enabled
// it additionally re-runs the scan-based baseline and panics on any
// bitwise divergence.
func (h *Hierarchy) FillGhostsData(l int) {
	if !h.WithData {
		return
	}
	plan := h.fillPlan(l)
	if h.dataCheck {
		h.fillGhostsChecked(l, plan)
		return
	}
	h.execFillPlan(plan)
}

// FillGhostsScan is the original O(grids²) scan-based ghost fill,
// kept as the datacheck baseline and for benchmarks. It prolongs every
// coarse-covered ghost cell and then overwrites the sibling overlaps,
// independent of the plan's cell-once subtraction, and produces
// exactly the same data as FillGhostsData.
func (h *Hierarchy) FillGhostsScan(l int) {
	if !h.WithData {
		return
	}
	dom := h.DomainAt(l)
	grids := h.Grids(l)
	for _, g := range grids {
		grown := g.Patch.Grown()
		ghost := geom.Subtract(grown, g.Box)
		// 1. Prolongation from every overlapping coarse grid fills a
		// baseline for the ghost cells with coarse coverage (never the
		// interior, which holds the fine solution).
		if l > 0 {
			for _, c := range h.Grids(l - 1) {
				refined := c.Box.Refine(h.RefFactor)
				for _, gb := range ghost {
					region := gb.Intersect(refined)
					if region.Empty() {
						continue
					}
					for _, f := range h.Fields {
						grid.Prolong(g.Patch, c.Patch, f, h.RefFactor, region)
					}
				}
			}
		}
		// 2. Sibling copies overwrite with same-level data.
		for _, s := range grids {
			if s.ID == g.ID {
				continue
			}
			ov := grown.Intersect(s.Box)
			if ov.Empty() {
				continue
			}
			for _, f := range h.Fields {
				grid.CopyRegion(g.Patch, s.Patch, f, ov)
			}
		}
		// 3. Clamp at the physical boundary: ghost cells outside the
		// domain copy the nearest interior cell (outflow condition).
		grown.ForEach(func(i geom.Index) {
			if dom.Contains(i) {
				return
			}
			src := i.Max(dom.Lo).Min(dom.Hi).Max(g.Box.Lo).Min(g.Box.Hi)
			for _, f := range h.Fields {
				g.Patch.Set(f, i, g.Patch.At(f, src))
			}
		})
	}
}

// RestrictData projects every level-l grid's solution onto its parent
// patch (the data motion of RestrictPlan), executing the cached
// restriction plan grouped by parent — in parallel over the attached
// pool — and verifying against the scan baseline when the datacheck
// oracle is on.
func (h *Hierarchy) RestrictData(l int) {
	if !h.WithData || l <= 0 {
		return
	}
	plan := h.restrictDataPlan(l)
	if h.dataCheck {
		h.restrictChecked(l, plan)
		return
	}
	h.execRestrictPlan(plan)
}

// RestrictDataScan is the original per-grid restriction walk, kept as
// the datacheck baseline and for benchmarks.
func (h *Hierarchy) RestrictDataScan(l int) {
	if !h.WithData || l <= 0 {
		return
	}
	for _, g := range h.Grids(l) {
		p := h.Grid(g.Parent)
		if p == nil || p.Patch == nil {
			continue
		}
		for _, f := range h.Fields {
			grid.Restrict(p.Patch, g.Patch, f, h.RefFactor)
		}
	}
}
