package amr

import (
	"samrdlb/internal/geom"
)

// Incremental plan maintenance. A structural mutation used to bump a
// global generation counter that discarded every level's cached plans,
// so any regrid or migration paid a full O(n²) rebuild of every plan
// it touched. Mutations instead mark per-level dirty state:
//
//   - AddGrid/RemoveGrid of box b at level l dirties plan level l in
//     the region b.Grow(NGhost) — exactly the destinations whose grown
//     box can see b — and plan level l+1 in b.Refine(r).Grow(NGhost),
//     the fine destinations whose prolongation sources include b.
//     Plans at l−1 and below never reference level-l structure (a
//     level's plans involve grid levels l and l−1 only), so nothing
//     coarser is touched.
//   - A parent re-link dirties the child's own box at its level (only
//     the child's prolong attribution and restrict entries change).
//   - SortLevel(l) reorders the level list, which is the iteration
//     order of every plan that walks level l: plans at l (destinations,
//     siblings, restrict order) and l+1 (prolong source order) go
//     fully dirty.
//   - ClearLevelsFrom(l) removes whole levels: plans and indexes for
//     l..MaxLevel go fully dirty wholesale, skipping per-grid marking.
//   - Ownership changes dirty nothing: cached plans are built with
//     dropLocal=false and carry no owner-derived state.
//
// The coarse–fine interface plan of fine level l (reflux.go) reads the
// boxes, list order and grid identity of levels l and l−1 and no
// owner, which is exactly the dependency set these rules cover, so it
// is level l's fourth plan kind and needs no rule of its own.
//
// Serving a plan patches rather than rebuilds: destinations whose box
// touches no dirty region keep their previous entries (the entry
// content is a pure function of structure the dirty rules prove
// unchanged); only destinations in dirty regions are re-planned via
// the spatial index. Past maxDirtyRegions accumulated regions the
// level collapses to dirtyAll — a regrid rebuilds wholesale, a
// migration's split patches a handful of destinations.
const maxDirtyRegions = 32

// planEntry returns level l's stable cache entry, creating it on first
// use. Entries are patched in place and never replaced, so concurrent
// phases can never observe a half-initialised swap. Callers hold
// planMu.
func (h *Hierarchy) planEntry(l int) *planCache {
	c := h.plans[l]
	if c == nil {
		c = &planCache{dirtyAll: true}
		h.plans[l] = c
	}
	return c
}

// markDirty adds a dirty region to plan level l (no-op outside the
// level range; collapses to dirtyAll past the region cap). Callers
// hold planMu.
func (h *Hierarchy) markDirty(l int, region geom.Box) {
	if l < 0 || l > h.MaxLevel {
		return
	}
	c := h.planEntry(l)
	if c.dirtyAll {
		return
	}
	if len(c.dirty) >= maxDirtyRegions {
		c.dirtyAll = true
		c.dirty = c.dirty[:0]
		return
	}
	c.dirty = append(c.dirty, region)
}

// markMutation applies the dirty rules for a grid of box b appearing
// at or disappearing from level l. Callers hold planMu.
func (h *Hierarchy) markMutation(l int, b geom.Box) {
	h.markDirty(l, b.Grow(h.NGhost))
	if l+1 <= h.MaxLevel {
		h.markDirty(l+1, b.Refine(h.RefFactor).Grow(h.NGhost))
	}
}

// noteAdded keeps the spatial index and dirty state in sync with
// AddGrid.
func (h *Hierarchy) noteAdded(g *Grid) {
	h.planMu.Lock()
	if h.index != nil {
		if li := h.index[g.Level]; li != nil {
			li.insert(g)
		}
	}
	h.markMutation(g.Level, g.Box)
	h.planMu.Unlock()
}

// noteRemoved keeps the spatial index and dirty state in sync with
// RemoveGrid.
func (h *Hierarchy) noteRemoved(g *Grid) {
	h.planMu.Lock()
	if h.index != nil {
		if li := h.index[g.Level]; li != nil {
			li.remove(g)
		}
	}
	h.markMutation(g.Level, g.Box)
	h.planMu.Unlock()
}

// noteParentChanged dirties the re-linked child's own plan entries.
func (h *Hierarchy) noteParentChanged(g *Grid) {
	h.planMu.Lock()
	h.markDirty(g.Level, g.Box)
	h.planMu.Unlock()
}

// noteSorted records a level-list reorder at level l.
func (h *Hierarchy) noteSorted(l int) {
	h.planMu.Lock()
	h.planEntry(l).markAll()
	if l+1 <= h.MaxLevel {
		h.planEntry(l + 1).markAll()
	}
	h.planMu.Unlock()
}

// noteCleared records the wholesale removal of levels l..MaxLevel,
// dropping their indexes and fully dirtying their plans in one stroke.
func (h *Hierarchy) noteCleared(l int) {
	h.planMu.Lock()
	for lv := l; lv <= h.MaxLevel; lv++ {
		h.planEntry(lv).markAll()
		if h.index != nil {
			h.index[lv] = nil
		}
	}
	h.planMu.Unlock()
}

func (c *planCache) markAll() {
	c.dirtyAll = true
	c.dirty = c.dirty[:0]
}

// boxTouchesAny reports whether b intersects any dirty region.
func boxTouchesAny(b geom.Box, regions geom.BoxList) bool {
	for _, r := range regions {
		if b.Intersects(r) {
			return true
		}
	}
	return false
}

// refreshPlans brings level l's cache entry up to date and returns it.
// The requested kinds are (re)built; when the level is dirty, every
// already-built kind refreshes too — all under this one critical
// section, so a caller reading several plan kinds from the entry
// always sees them coherent with each other and with the current
// structure. Callers hold planMu.
func (h *Hierarchy) refreshPlans(l int, need planKind) *planCache {
	c := h.planEntry(l)
	if c.dirtyAll || len(c.dirty) > 0 {
		need |= c.built
	} else {
		need &^= c.built
	}
	if need&planMsg != 0 {
		h.patchMsgPlan(l, c)
	}
	if need&planFill != 0 {
		h.patchFillPlan(l, c)
	}
	if need&planRestrict != 0 {
		c.restrictData = h.buildRestrictDataPlan(l)
	}
	if need&planInterface != 0 {
		// Rebuilt outright, like the restrict plan: the face table is one
		// flat array in level order and the indexed build is O(faces).
		c.iface = h.buildInterfacePlan(l, h.indexFor(l), h.indexFor(l-1))
	}
	c.built |= need
	c.dirtyAll = false
	c.dirty = c.dirty[:0]
	if h.planCheck {
		h.verifyPlans(l, c)
	}
	return c
}

// patchMsgPlan rebuilds or patches the level's message plans (ghost +
// restrict). Destinations outside every dirty region reuse their
// previous message segment; the rest are re-planned through the
// spatial index. The restrict plan is O(n) linear and rebuilds
// outright. Callers hold planMu.
func (h *Hierarchy) patchMsgPlan(l int, c *planCache) {
	grids := h.Grids(l)
	full := c.built&planMsg == 0 || c.dirtyAll
	var oldIdx map[GridID]int32
	oldGhost, oldOff := c.ghost, c.ghostOff
	if !full {
		oldIdx = make(map[GridID]int32, len(c.ghostIDs))
		for i, id := range c.ghostIDs {
			oldIdx[id] = int32(i)
		}
	}
	li := h.indexFor(l)
	dom := h.DomainAt(l)
	bytesPerCell := int64(len(h.Fields)) * 8
	scr := getPlanScratch()
	ghost := make([]Message, 0, len(oldGhost))
	off := make([]int32, len(grids)+1)
	ids := make([]GridID, len(grids))
	for i, g := range grids {
		ids[i] = g.ID
		if !full {
			if j, ok := oldIdx[g.ID]; ok && !boxTouchesAny(g.Box, c.dirty) {
				ghost = append(ghost, oldGhost[oldOff[j]:oldOff[j+1]]...)
				off[i+1] = int32(len(ghost))
				continue
			}
		}
		ghost = h.appendGhostDest(ghost, g, l, li, dom, bytesPerCell, false, scr)
		off[i+1] = int32(len(ghost))
	}
	putPlanScratch(scr)
	c.ghost, c.ghostOff, c.ghostIDs = ghost, off, ids
	c.restrict = h.RestrictPlan(l, false)
}

// patchFillPlan rebuilds or patches the level's data-motion fill plan,
// reusing the per-destination work lists of untouched grids. Callers
// hold planMu.
func (h *Hierarchy) patchFillPlan(l int, c *planCache) {
	grids := h.Grids(l)
	full := c.built&planFill == 0 || c.dirtyAll
	var oldIdx map[GridID]int
	if !full {
		oldIdx = make(map[GridID]int, len(c.fill))
		for i := range c.fill {
			oldIdx[c.fill[i].g.ID] = i
		}
	}
	li := h.indexFor(l)
	var cli *levelIndex
	if l > 0 {
		cli = h.indexFor(l - 1)
	}
	dom := h.DomainAt(l)
	scr := getPlanScratch()
	plan := make([]fillDest, 0, len(grids))
	for _, g := range grids {
		if !full {
			if j, ok := oldIdx[g.ID]; ok && !boxTouchesAny(g.Box, c.dirty) {
				plan = append(plan, c.fill[j])
				continue
			}
		}
		plan = append(plan, h.buildFillDest(g, l, li, cli, dom, scr))
	}
	putPlanScratch(scr)
	c.fill = plan
}
