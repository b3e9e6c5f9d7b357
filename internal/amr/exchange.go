package amr

import (
	"slices"
	"sync"

	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// Message is one inter-grid transfer of the exchange plan. Src and
// Dst identify grids; the engine maps them to processors and links.
type Message struct {
	Src, Dst GridID
	Bytes    int64
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
	planInterface
	planGhostXfer
	planRestrictXfer

	// planXfer is the kinds that read owners as well as structure.
	planXfer = planGhostXfer | planRestrictXfer
)

// planCache is a level's plan-cache entry — the ghost messages, the
// processor-pair tables of the ghost exchange and the restriction, the
// fill plan and the coarse–fine interface plan — valid for the
// structure generations it is stamped with (see Hierarchy.gen). The
// plans are keyed by grid identity and boxes; the mpx execution resolves
// owners when it routes the messages. Only the pair tables read owners,
// and they carry the ownership generations they were built at as well.
// The restriction's plan is level l−1's child table (childTableFor),
// which follows level l's generation alone. Each kind is built lazily
// on first use, the messages and the fill by one walk over the level
// (buildPlans), and a slice handed out is never written again.
type planCache struct {
	// gen and coarseGen are the generations of levels l and l−1 the
	// entry was built at, own and coarseOwn their ownership generations
	// when the pair tables were.
	gen, coarseGen uint64
	own, coarseOwn uint64
	// built is the set of kinds built so far.
	built planKind

	ghost []Message
	// ghostXfer is ghost coalesced per processor pair (see aggregate),
	// restrictXfer the restriction (see restrictTransfers).
	ghostXfer, restrictXfer []Transfer
	fill                    []fillDest
	// iface is the interface plan between this level and the next
	// coarser one (see reflux.go).
	iface *interfacePlan
}

// releasePlans drops the plans, the index and the child table that read
// level l, which the caller has just made stale, keeping what the next
// refresh reads from a stale entry: the kinds it had built. They would
// be rebuilt on their next use either way; dropped here, a collection
// that runs during the regrid in between does not mark them, and what
// it marks sets how far the heap grows before the next one: a data
// run's peak RSS falls by a fifth.
func (h *Hierarchy) releasePlans(l int) {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	c := &h.plans[l]
	*c = planCache{gen: c.gen, coarseGen: c.coarseGen, built: c.built}
	h.index[l] = nil
	if l > 0 {
		h.kids[l-1] = nil
	}
}

// refreshPlans brings level l's cache entry up to date and returns it.
// A stale entry is reset and the plans it held are rebuilt along with
// the requested ones, the messages and a data run's fill in one pass —
// all under this one critical section, so a
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
	if need&planGhostXfer != 0 {
		need |= planMsg
	}
	// One walk builds the messages and the fill: a fill request implies
	// the messages, and with data a message request implies the fill,
	// so each destination's neighbours are found once per generation.
	if need&planFill != 0 || h.WithData && need&planMsg != 0 {
		need |= planMsg | planFill
	}
	need &^= c.built
	if need&(planMsg|planFill) != 0 {
		ghost, fill := h.buildPlans(l, need&planFill != 0)
		if need&planMsg != 0 {
			c.ghost = ghost
		}
		c.fill = fill
	}
	// The two tables are built apart: a local balance usually moves an
	// owner between a level's ghost charge and its restrict charge.
	if need&planXfer != 0 {
		n := h.ownerSpan(l)
		if need&planGhostXfer != 0 {
			c.ghostXfer = h.aggregate(c.ghost, n)
		}
		if need&planRestrictXfer != 0 {
			c.restrictXfer = h.restrictTransfers(l, n)
		}
		c.own, c.coarseOwn = own, coarseOwn
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
// walk and of the planners that query a level index — candidate lists,
// box decompositions and a chunk's message blocks — pooled so plan
// rebuilds stop allocating per grid.
type planScratch struct {
	// cand holds a level's candidates, coarse the next coarser level's;
	// marks is levelIndex.query's position bitmap, on a pooled scratch
	// backed by marks0 up to 1024 grids, so it costs no allocation of
	// its own.
	cand, coarse []*Grid
	marks        []uint64
	marks0       [16]uint64
	// copies are a fill destination's sibling copy regions; covered is
	// what the other callers of subtractList subtract.
	copies, covered geom.BoxList
	rem, tmp        geom.BoxList
	// faces are a fill destination's face slabs, left its face cells
	// no sibling covers, clamps those outside the domain and ops its
	// work list.
	faces, left, clamps geom.BoxList
	ops                 []fillOp
	// iface, refs and writers are an interface plan's face table, its
	// coarse work lists and each list entry's writer while they grow.
	iface   []interfaceFace
	refs    []coarseRef
	writers []int32
	// blocks hold a plan chunk's messages in order; block is the one
	// kept for the next chunk.
	blocks [][]Message
	block  []Message
}

// planChunk is the fewest destination grids a plan builder gives one
// pool task: a chunk is a few hundred microseconds of planning, far
// above what a task costs to start.
const planChunk = 64

// A plan chunk collects its messages in blocks of up to maxMsgBlock
// messages (128 KiB), each twice the last, and closes a block when
// fewer than destMsgs slots are left, more than one destination
// usually sends. A pooled planScratch keeps its last block.
const (
	maxMsgBlock = 1 << 12
	destMsgs    = 64
)

var planScratchPool = sync.Pool{New: func() any {
	s := new(planScratch)
	s.marks = s.marks0[:]
	return s
}}

func getPlanScratch() *planScratch { return planScratchPool.Get().(*planScratch) }

// putPlanScratch returns s to the pool with every grid pointer it holds,
// up to each slice's capacity, cleared: a pooled scratch keeps no
// retired grid alive.
func putPlanScratch(s *planScratch) {
	clear(s.cand[:cap(s.cand)])
	clear(s.coarse[:cap(s.coarse)])
	clear(s.ops[:cap(s.ops)])
	clear(s.iface[:cap(s.iface)])
	planScratchPool.Put(s)
}

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

// RestrictTransfers returns level l's restriction — one message per
// fine grid, its coarsened cells, to its parent — coalesced per
// processor pair, memoised like GhostTransfers.
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

// pairTable coalesces transfers per (src proc, dst proc) pair — one
// latency per pair, bytes summed, matching message coalescing in real
// SAMR codes — into a table in (src, dst) order, which is slot order,
// src·n+dst. A transfer between grids of one processor moves nothing;
// zero-byte transfers still make a pair. Every owner is below n. It is
// the hierarchy's scratch, kept for its capacity; callers hold planMu.
type pairTable struct {
	// slot[src·n+dst] is one more than the pair's bytes, zero while
	// unseen; take zeroes the slots used again.
	slot     []int64
	n, pairs int
}

// start begins a table over n processors.
func (t *pairTable) start(n int) {
	if len(t.slot) < n*n {
		t.slot = make([]int64, n*n)
	}
	t.n, t.pairs = n, 0
}

// add adds a transfer of bytes from processor src to dst.
func (t *pairTable) add(src, dst int, bytes int64) {
	if src == dst {
		return
	}
	at := &t.slot[src*t.n+dst]
	if *at == 0 {
		t.pairs++
		*at = 1
	}
	*at += bytes
}

// take returns the table, reading the slots in order, up to the last
// pair, zeroing each: the per-processor float sums, and every DLB
// decision after, depend on the order.
func (t *pairTable) take() []Transfer {
	if t.pairs == 0 {
		return nil
	}
	out := make([]Transfer, 0, t.pairs)
	for s := 0; len(out) < t.pairs; s++ {
		if v := t.slot[s]; v != 0 {
			out = append(out, Transfer{Src: s / t.n, Dst: s % t.n, Bytes: v - 1})
			t.slot[s] = 0
		}
	}
	return out
}

// aggregate coalesces a message plan per processor pair (see
// pairTable). A destination's messages are consecutive in a plan, so
// its owner is resolved once per run of equal Dst. No (Src, Dst) pair
// repeats: a plan sends one message per neighbour and destination.
// Callers hold planMu.
func (h *Hierarchy) aggregate(msgs []Message, n int) []Transfer {
	t := &h.pairs
	t.start(n)
	dst := 0
	for i, m := range msgs {
		if i == 0 || m.Dst != msgs[i-1].Dst {
			dst = h.Grid(m.Dst).Owner
		}
		t.add(h.Grid(m.Src).Owner, dst, m.Bytes)
	}
	return t.take()
}

// restrictTransfers coalesces level l's restriction per processor pair
// (see pairTable) straight from the child table, one parent's run at a
// time. Callers hold planMu.
func (h *Hierarchy) restrictTransfers(l, n int) []Transfer {
	if l <= 0 {
		return nil
	}
	bytesPerCell := int64(len(h.Fields)) * 8
	r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
	kids := h.childTableFor(l - 1).kids
	t := &h.pairs
	t.start(n)
	h.parentRuns(kids, func(p *Grid, lo, hi int) {
		for _, g := range kids[lo:hi] {
			t.add(g.Owner, p.Owner, g.NumCells()/r3*bytesPerCell)
		}
	})
	return t.take()
}

// GhostPlan returns the transfers required to fill the ghost zones of
// every level-l grid before a step: one message per sibling that
// overlaps the grid's ghost shell, carrying the overlap, plus one
// prolongation from the parent for the shell cells no sibling covers.
// Zero-byte and intra-grid entries are omitted; with dropLocal, so are
// the messages dropSameOwner removes.
//
// Sources are found through the level's spatial index — O(n·k) instead
// of the O(n²) all-pairs scan — in level-list order, so the result is
// byte-identical to GhostPlanScan.
func (h *Hierarchy) GhostPlan(l int, dropLocal bool) []Message {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	plan, _ := h.buildPlans(l, false)
	if dropLocal {
		plan = h.dropSameOwner(plan)
	}
	return plan
}

// dropSameOwner removes, in place, the messages whose source and
// destination grids share a processor. Filtering a built plan leaves
// its prolongation counts as they were: a sibling on the destination's
// processor sends nothing but still covers its share of the shell.
func (h *Hierarchy) dropSameOwner(plan []Message) []Message {
	return slices.DeleteFunc(plan, func(m Message) bool { return h.Grid(m.Src).Owner == h.Grid(m.Dst).Owner })
}

// buildPlans plans level l in one pass: the cost-model messages and,
// with fill, the ghost-fill work lists, from one planDest walk per
// grid. The grids are cut into contiguous chunks planned over the pool;
// a chunk writes its own grids' fill slots and its messages into its
// own blocks, which are copied in chunk order into one exact-size plan:
// the serial plans, whatever the pool's width. Callers hold planMu.
//
// A block is never regrown. Growing one list by append would cost ~5x
// its final length in garbage, and a level's first plan has no length
// to size it by.
func (h *Hierarchy) buildPlans(l int, fill bool) ([]Message, []fillDest) {
	grids := h.Grids(l)
	li := h.indexFor(l)
	var cli *levelIndex
	var plan []fillDest
	if fill {
		plan = make([]fillDest, len(grids))
		if l > 0 {
			cli = h.indexFor(l - 1)
		}
	}
	dom := h.DomainAt(l)
	bytesPerCell := int64(len(h.Fields)) * 8
	parts := make([]*planScratch, h.pool.Chunks(len(grids), planChunk))
	h.pool.ForChunks(len(grids), planChunk, func(c, lo, hi int) {
		scr := getPlanScratch()
		cur := scr.block[:0]
		for i := lo; i < hi; i++ {
			if cap(cur)-len(cur) < destMsgs {
				scr.blocks = append(scr.blocks, cur)
				cur = make([]Message, 0, min(max(2*cap(cur), destMsgs), maxMsgBlock))
			}
			var d *fillDest
			if fill {
				d = &plan[i]
			}
			cur = h.planDest(cur, d, grids[i], l, li, cli, dom, bytesPerCell, scr)
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
	return out, plan
}

// planDest walks destination g's neighbourhood once for both plans,
// mirroring one iteration of the GhostPlanScan outer loop: one index
// query for its grown box supplies the overlapping siblings in
// level-list order. Each sibling sends one message of its overlap ov,
// and with fill non-nil, a sibling whose ov meets a face slab is kept
// with that clip as its copy region; a sibling disjoint from g.Box
// meets at most one face slab (a box meeting two would hold a cell of
// g.Box). The parent then sends the shell cells no sibling holds, and
// planFillDest finishes the fill from the kept copies.
//
// The prolongation remainder is a count, not a box list. The grids of
// a level are disjoint (CheckProperNesting), so the overlaps are
// pairwise disjoint pieces of the in-domain shell and what no sibling
// covers is the shell's cells minus theirs. GhostPlanScan subtracts the
// boxes and assumes neither, which is what lets -check=plan catch a
// level that overlaps.
func (h *Hierarchy) planDest(out []Message, fill *fillDest, g *Grid, l int, li, cli *levelIndex, dom geom.Box, bytesPerCell int64, scr *planScratch) []Message {
	grown := g.Box.Grow(h.NGhost)
	remaining := grown.Intersect(dom).NumCells() - g.Box.NumCells()
	scr.cand = li.query(grown, scr.cand[:0], scr)
	// Keep, in place, the siblings the fill copies from.
	sibs := scr.cand[:0]
	scr.copies = scr.copies[:0]
	for _, s := range scr.cand {
		if s.ID == g.ID {
			continue
		}
		ov := grown.Intersect(s.Box)
		cells := ov.NumCells()
		remaining -= cells
		out = append(out, Message{
			Src: s.ID, Dst: g.ID,
			Bytes: cells * bytesPerCell,
		})
		if fill == nil {
			continue
		}
		for d := range geom.Dims {
			if c := ov.Intersect(g.Box.GrowDim(d, h.NGhost, h.NGhost)); !c.Empty() {
				sibs = append(sibs, s)
				scr.copies = append(scr.copies, c)
				break
			}
		}
	}
	// Ghost cells no sibling holds come from the coarse level
	// (prolongation); attribute them to the parent grid.
	if l > 0 && remaining > 0 {
		p := h.Grid(g.Parent)
		if p != nil {
			// Coarse data for r^3 fine ghost cells is one coarse
			// cell; the transfer moves the coarse footprint.
			r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
			coarseCells := (remaining + r3 - 1) / r3
			out = append(out, Message{
				Src: p.ID, Dst: g.ID,
				Bytes: coarseCells * bytesPerCell,
			})
		}
	}
	if fill != nil {
		*fill = h.planFillDest(g, grown, sibs, l, cli, dom, scr)
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
// kept as the -check=plan baseline and for benchmarks. On a level whose
// grids are disjoint it produces exactly the same messages as GhostPlan,
// one per sibling that meets the shell; it subtracts g.Box and the
// overlaps as boxes, so it is right on any level.
func (h *Hierarchy) GhostPlanScan(l int) []Message {
	var out []Message
	bytesPerCell := int64(len(h.Fields)) * 8
	dom := h.DomainAt(l)
	grids := h.Grids(l)
	for _, g := range grids {
		grown := g.Box.Grow(h.NGhost).Intersect(dom)
		covered := geom.BoxList{g.Box}
		for _, s := range grids {
			if s.ID == g.ID || !s.Box.Intersects(grown) {
				continue
			}
			ov := geom.Subtract(grown.Intersect(s.Box), g.Box)
			if len(ov) == 0 {
				continue
			}
			covered = append(covered, ov...)
			out = append(out, Message{
				Src: s.ID, Dst: g.ID,
				Bytes: ov.NumCells() * bytesPerCell,
			})
		}
		if l == 0 {
			continue
		}
		remaining := geom.SubtractList(grown, covered).NumCells()
		if remaining > 0 {
			p := h.Grid(g.Parent)
			if p != nil {
				r3 := int64(h.RefFactor * h.RefFactor * h.RefFactor)
				coarseCells := (remaining + r3 - 1) / r3
				out = append(out, Message{
					Src: p.ID, Dst: g.ID,
					Bytes: coarseCells * bytesPerCell,
				})
			}
		}
	}
	return out
}

// FillGhostsData performs the actual data motion of GhostPlan on the
// patches' face slabs, the ghost cells a 7-point stencil reads: copy
// sibling overlaps, prolong from the coarse level, and
// clamp-extrapolate at the physical domain boundary. It is the wire
// fill with a nil rank, one shard that holds every grid, running the
// cached plan over the attached pool; with the datacheck oracle enabled
// it additionally re-runs the scan-based baseline and panics on any
// bitwise divergence.
func (h *Hierarchy) FillGhostsData(l int) {
	if !h.WithData {
		return
	}
	h.CheckFill(l, func() bool { h.FillGhostsMPX(nil, l, nil); return true })
}

// FillGhostsScan is the original O(grids²) scan-based ghost fill,
// kept as the datacheck baseline and for benchmarks. It fills the whole
// ghost shell: it prolongs every coarse-covered ghost cell and then
// overwrites the sibling overlaps, independent of the plan's cell-once
// subtraction, and produces exactly FillGhostsData's face cells, plus
// the edges and corners the plan leaves alone.
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
// patch (the data motion RestrictTransfers charges). It is the wire
// restriction with a nil rank, one pool task per parent, and is
// verified against the scan baseline when the datacheck oracle is on.
func (h *Hierarchy) RestrictData(l int) {
	if !h.WithData || l <= 0 {
		return
	}
	h.CheckRestrict(l, func() bool { h.RestrictMPX(nil, l, nil); return true })
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
