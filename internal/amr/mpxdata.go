package amr

import (
	"fmt"
	"slices"
	"sync"

	"samrdlb/internal/grid"
	"samrdlb/internal/mpx"
)

// Wire exchanges. A rank is a processor group (a shard): the grids of
// its processors share its memory, so what they move among themselves
// is copied directly, and only what crosses two shards becomes a
// message. A shard sends each other shard at most one message per
// exchange — every region the pair moves, packed back to back in plan
// order — and the exchange is its tag. mpx reserves negative tags for
// its collectives, so these count up from zero.
const (
	tagFill = iota
	tagRestrict
)

var tagNames = [...]string{"fill", "restrict"}

// exchange is one shard's scratch for a coalesced exchange: a send
// buffer per destination shard, and per source shard the message
// received this exchange with the cursor of how much of it the plan
// walk has consumed. Before the send buffers are packed, cur holds the
// number of values each peer is owed (reserve).
type exchange struct {
	send [][]float64
	recv [][]float64
	cur  []int
	// heads and in are a restriction's: the plan entry that starts each
	// run of one of this shard's parents (see parentRuns), and per plan
	// entry the slice of a received message that holds its fine grid.
	heads []int
	in    [][]float64
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// openExchange returns the scratch of one exchange of rank r, r's shard
// and the owner→shard map. A nil rank is shared memory: one shard that
// holds every grid, so nothing is packed, posted or received, and the
// exchange is its local half alone.
func openExchange(r *mpx.Rank, shardOf func(owner int) int) (x *exchange, me int, _ func(owner int) int) {
	if r == nil {
		return getExchange(1), 0, func(int) int { return 0 }
	}
	return getExchange(r.Size()), r.ID(), shardOf
}

// getExchange returns scratch sized for n shards with every send
// buffer truncated and every receive dropped: an exchange aborted
// midway by a wire fault leaves half-packed buffers and a
// half-consumed message behind, and neither may leak into the retry or
// the next level.
func getExchange(n int) *exchange {
	x := exchangePool.Get().(*exchange)
	if len(x.send) != n {
		*x = exchange{send: make([][]float64, n), recv: make([][]float64, n), cur: make([]int, n)}
	}
	for i := range x.send {
		x.send[i] = x.send[i][:0]
		x.recv[i] = nil
		x.cur[i] = 0
	}
	return x
}

// reserve sizes each peer's send buffer once, for the values a
// counting walk of the plan tallied in x.cur: packing then never
// regrows a buffer. The cursors are zeroed again for the receive side.
func (x *exchange) reserve() {
	for p, n := range x.cur {
		x.send[p] = slices.Grow(x.send[p], n)
		x.cur[p] = 0
	}
}

// take appends n values to peer's send buffer and returns them for
// the caller to fill; reserve has made the room.
func (x *exchange) take(peer, n int) []float64 {
	k := len(x.send[peer])
	x.send[peer] = x.send[peer][:k+n]
	return x.send[peer][k:]
}

// post sends every non-empty buffer as the exchange's one message to
// its destination shard. The transport copies or serialises a message
// before Send returns, so the buffers are free for the next exchange.
func (x *exchange) post(r *mpx.Rank, tag int) {
	for dst, buf := range x.send {
		if len(buf) > 0 {
			r.Send(dst, tag, buf)
			x.send[dst] = buf[:0]
		}
	}
}

// next returns the next n values of src's message for this exchange,
// receiving the message on first need. Both shards derive n from the
// same plan entry, so running off the end means they disagree on the
// plan.
func (x *exchange) next(r *mpx.Rank, tag, src, n int) []float64 {
	if x.recv[src] == nil {
		x.recv[src] = r.Recv(src, tag)
		x.cur[src] = 0
	}
	k := x.cur[src]
	if k+n > len(x.recv[src]) {
		panic(fmt.Sprintf("amr: %s exchange: shard %d needs values %d..%d of shard %d's message, which has %d — the shards disagree on the plan",
			tagNames[tag], r.ID(), k, k+n, src, len(x.recv[src])))
	}
	x.cur[src] = k + n
	return x.recv[src][k : k+n]
}

// finish checks that every message received this exchange was consumed
// to its exact length and hands it back to the world for the
// transport's next decode.
func (x *exchange) finish(r *mpx.Rank, tag int) {
	for src, msg := range x.recv {
		if msg == nil {
			continue
		}
		if x.cur[src] != len(msg) {
			panic(fmt.Sprintf("amr: %s exchange: shard %d consumed %d/%d values of shard %d's message — the shards disagree on the plan",
				tagNames[tag], r.ID(), x.cur[src], len(msg), src))
		}
		r.Release(msg)
		x.recv[src] = nil
	}
}

// FillGhostsMPX performs FillGhostsData's data motion through a
// message-passing world whose ranks are shards: shardOf maps a grid's
// owner to the shard hosting it, and r.ID() is this shard. One fill is
// one exchange. The shard packs the source cells of every op that reads
// one of its grids and writes another shard's, one buffer per peer in
// plan order, and posts them; it runs the ops and clamps that stay in
// the shard over the host pool; then it applies each peer's message in
// plan order. A fill writes each face cell once
// and reads only interiors, which no fill writes (see fillDest), so the
// ops' order changes no bit and the shards run genuinely in parallel. A
// sender and a receiver meet the same plan entries in the same order,
// so position in the message needs no header.
//
// Every shard walks the same cached plan in place — built lazily under
// the hierarchy's plan mutex and shared by all. With a nil rank it is
// FillGhostsData's executor (see openExchange).
func (h *Hierarchy) FillGhostsMPX(r *mpx.Rank, level int, shardOf func(owner int) int) {
	// A pair's message is sent only when it is non-empty, so without
	// fields there is nothing to send and nothing to wait for.
	if !h.WithData || len(h.Fields) == 0 {
		return
	}
	nf := len(h.Fields)
	plan := h.fillPlan(level)
	x, me, shardOf := openExchange(r, shardOf)
	defer exchangePool.Put(x)

	// pack visits every op that reads this shard's grids for another's.
	pack := func(visit func(to int, op *fillOp)) {
		for i := range plan {
			d := &plan[i]
			if to := shardOf(d.g.Owner); to != me {
				for j := range d.ops {
					if op := &d.ops[j]; shardOf(op.src.Owner) == me {
						visit(to, op)
					}
				}
			}
		}
	}
	pack(func(to int, op *fillOp) {
		_, n := h.packed(op)
		x.cur[to] += n * nf
	})
	x.reserve()
	pack(func(to int, op *fillOp) {
		dense, n := h.packed(op)
		buf, from := x.take(to, n*nf), op.rows(op.from)
		for f := range nf {
			grid.CopyRows(buf[f*n:], dense, op.src.Patch.FieldAt(f), from)
		}
	})
	x.post(r, tagFill)

	h.pool.ForEach(len(plan), func(i int) {
		d := &plan[i]
		if shardOf(d.g.Owner) != me {
			return
		}
		for j := range d.ops {
			if op := &d.ops[j]; shardOf(op.src.Owner) == me {
				h.runFillOp(d.g.Patch, op)
			}
		}
		h.clampFaces(d)
	})

	for i := range plan {
		d := &plan[i]
		if shardOf(d.g.Owner) != me {
			continue
		}
		for j := range d.ops {
			op := &d.ops[j]
			if from := shardOf(op.src.Owner); from != me {
				dense, n := h.packed(op)
				data := x.next(r, tagFill, from, n*nf)
				for f := range nf {
					h.applyFillOp(d.g.Patch.FieldAt(f), op, data[f*n:(f+1)*n], dense)
				}
			}
		}
	}
	x.finish(r, tagFill)
}

// packed returns the dense layout in which a message carries, field
// after field in Patch.FieldAt order, the cells op reads: the region
// itself for a copy, its coarse footprint for a prolongation. n is its
// number of cells.
func (h *Hierarchy) packed(op *fillOp) (dense grid.Rows, n int) {
	read := op.region()
	if op.prolong {
		read = read.Coarsen(h.RefFactor)
	}
	dense = grid.RowsOf(read, read)
	return dense, dense.N * dense.NY * dense.NZ
}

// RestrictMPX performs RestrictData's motion through the world of
// shards FillGhostsMPX describes; with a nil rank it is RestrictData's
// executor. Its plan is level l−1's child table: level l's grids by
// parent, then in level order. A fine grid of this shard under another
// shard's parent is restricted over its coarsened box straight into the
// message for that shard, which copies the part inside the parent's
// interior out of the message — the cells grid.Restrict's overlap
// computation writes. Each parent of this shard is then one pool task,
// which takes its fine grids in plan order, restricting one of this
// shard directly and copying a remote one's slice of the message, so a
// partly covered coarse cell keeps its last writer. A task writes only
// its parent's interior, and nothing writes the fine level in this
// exchange.
func (h *Hierarchy) RestrictMPX(r *mpx.Rank, level int, shardOf func(owner int) int) {
	if !h.WithData || level <= 0 || len(h.Fields) == 0 {
		return
	}
	nf := len(h.Fields)
	kids := h.restrictPlan(level)
	x, me, shardOf := openExchange(r, shardOf)
	defer exchangePool.Put(x)

	// pack visits every fine grid of this shard under another's parent.
	pack := func(visit func(to int, g *Grid)) {
		h.parentRuns(kids, func(p *Grid, lo, hi int) {
			if to := shardOf(p.Owner); to != me {
				for _, g := range kids[lo:hi] {
					if shardOf(g.Owner) == me {
						visit(to, g)
					}
				}
			}
		})
	}
	pack(func(to int, g *Grid) { x.cur[to] += int(g.Box.Coarsen(h.RefFactor).NumCells()) * nf })
	x.reserve()
	pack(func(to int, g *Grid) {
		coarse := g.Box.Coarsen(h.RefFactor)
		nc := int(coarse.NumCells())
		buf := x.take(to, nc*nf)
		for k, f := range h.Fields {
			grid.RestrictInto(buf[k*nc:(k+1)*nc], coarse, coarse, g.Patch, f, h.RefFactor)
		}
	})
	x.post(r, tagRestrict)

	// Find where each run of this shard's parents starts and each remote
	// fine grid's slice of its message, in plan order.
	x.heads = x.heads[:0]
	x.in = slices.Grow(x.in[:0], len(kids))[:len(kids)]
	h.parentRuns(kids, func(p *Grid, lo, hi int) {
		if shardOf(p.Owner) != me {
			return
		}
		x.heads = append(x.heads, lo)
		for i, g := range kids[lo:hi] {
			if from := shardOf(g.Owner); from != me {
				x.in[lo+i] = x.next(r, tagRestrict, from, int(g.Box.Coarsen(h.RefFactor).NumCells())*nf)
			}
		}
	})
	h.pool.ForEach(len(x.heads), func(k int) {
		lo := x.heads[k]
		p := h.Grid(kids[lo].Parent)
		for i := lo; i < len(kids) && kids[i].Parent == p.ID; i++ {
			g := kids[i]
			if shardOf(g.Owner) == me {
				for _, f := range h.Fields {
					grid.Restrict(p.Patch, g.Patch, f, h.RefFactor)
				}
				continue
			}
			coarse := g.Box.Coarsen(h.RefFactor)
			reg := coarse.Intersect(p.Box)
			if reg.Empty() {
				continue
			}
			nc := int(coarse.NumCells())
			to, src := grid.RowsOf(p.Patch.Grown(), reg), grid.RowsOf(coarse, reg)
			for k, f := range h.Fields {
				grid.CopyRows(p.Patch.Field(f), to, x.in[i][k*nc:(k+1)*nc], src)
			}
		}
	})
	clear(x.in)
	x.finish(r, tagRestrict)
}
