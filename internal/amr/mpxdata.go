package amr

import (
	"fmt"
	"slices"
	"sync"

	"samrdlb/internal/grid"
	"samrdlb/internal/mpx"
)

// Wire phases of the rank exchange. A (source rank, destination rank)
// pair exchanges at most one message per phase — every region the pair
// moves, packed back to back in plan order — and the phase is its tag.
// mpx reserves negative tags for its collectives, so these count up
// from zero.
const (
	phaseProlong = iota
	phaseSibling
	phaseRestrict
)

var phaseNames = [...]string{"prolong", "sibling", "restrict"}

// exchange is one rank's scratch for a coalesced exchange: a send
// buffer per destination rank, and per source rank the message
// received this phase with the cursor of how much of it the plan walk
// has consumed.
type exchange struct {
	send [][]float64
	recv [][]float64
	cur  []int
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// getExchange returns scratch sized for n ranks with every send
// buffer truncated and every receive dropped: a phase aborted midway
// by a wire fault leaves half-packed buffers and a half-consumed
// message behind, and neither may leak into the retry or the next
// level.
func getExchange(n int) *exchange {
	x := exchangePool.Get().(*exchange)
	if len(x.send) != n {
		*x = exchange{send: make([][]float64, n), recv: make([][]float64, n), cur: make([]int, n)}
	}
	for i := range x.send {
		x.send[i] = x.send[i][:0]
		x.recv[i] = nil
	}
	return x
}

// post sends every non-empty buffer as the phase's one message to its
// destination rank. Only buffers for ranks in other shards are ever
// filled — a same-shard destination reads its sources directly — so
// every message posted goes to the transport, which copies or
// serialises it before Send returns: the buffers are free for the next
// phase.
func (x *exchange) post(r *mpx.Rank, phase int) {
	for dst, buf := range x.send {
		if len(buf) > 0 {
			r.Send(dst, phase, buf)
			x.send[dst] = buf[:0]
		}
	}
}

// next returns the next n values of src's message for this phase,
// receiving the message on first need. Both ranks derive n from the
// same plan entry, so running off the end means they disagree on the
// plan.
func (x *exchange) next(r *mpx.Rank, phase, src, n int) []float64 {
	if x.recv[src] == nil {
		x.recv[src] = r.Recv(src, phase)
		x.cur[src] = 0
	}
	k := x.cur[src]
	if k+n > len(x.recv[src]) {
		panic(fmt.Sprintf("amr: %s exchange: rank %d needs values %d..%d of rank %d's message, which has %d — the ranks disagree on the plan",
			phaseNames[phase], r.ID(), k, k+n, src, len(x.recv[src])))
	}
	x.cur[src] = k + n
	return x.recv[src][k : k+n]
}

// finish checks that every message received this phase was consumed
// to its exact length and drops it.
func (x *exchange) finish(r *mpx.Rank, phase int) {
	for src, msg := range x.recv {
		if msg == nil {
			continue
		}
		if x.cur[src] != len(msg) {
			panic(fmt.Sprintf("amr: %s exchange: rank %d consumed %d/%d values of rank %d's message — the ranks disagree on the plan",
				phaseNames[phase], r.ID(), x.cur[src], len(msg), src))
		}
		x.recv[src] = nil
	}
}

// FillGhostsMPX performs exactly FillGhostsData's data motion, but
// through a message-passing world: everything one rank's grids supply
// to the grids of a rank in another shard travels as one message per
// phase between the two, while a rank copies from the grids of ranks
// in its own shard directly, as FillGhostsData does. Each rank writes
// only the ghost cells of the grids its processor owns, and reads only
// its own grids and the interiors of its shard's, which no rank writes
// during a fill, so the exchange is genuinely parallel. Grid owners
// are interpreted as rank IDs.
//
// Every rank walks the same cached data-motion plan in place — built
// lazily under the hierarchy's plan mutex and shared by all.
func (h *Hierarchy) FillGhostsMPX(r *mpx.Rank, level int) {
	// A pair's message is sent only when it is non-empty, so without
	// fields there is nothing to send and nothing to wait for.
	if !h.WithData || len(h.Fields) == 0 {
		return
	}
	me := r.ID()
	plan := h.fillPlan(level)
	x := getExchange(r.Size())
	defer exchangePool.Put(x)

	// Phase A: prolongation of ghost cells from the coarse level.
	if level > 0 {
		h.fillPhaseMPX(r, x, plan, phaseProlong)
	}
	// Phase B: sibling overlap copies, into the ghost cells the
	// prolongations left (a plan writes each cell once).
	h.fillPhaseMPX(r, x, plan, phaseSibling)

	// Phase C: physical-boundary clamp, purely local to each owner.
	for i := range plan {
		if d := &plan[i]; d.g.Owner == me {
			h.clampFaces(d)
		}
	}
	r.Barrier()
}

// fillPhaseMPX runs the plan's prolongations (phaseProlong) or its
// sibling copies (phaseSibling) for one rank, in two walks: the first
// packs the source cells of every operation that reads one of the
// rank's grids and writes the grid of a rank in another shard, and
// posts the buffers; the second applies every operation that writes
// one of the rank's own grids in plan order, one whose source is in
// the rank's shard from the source patch and any other from the source
// rank's message. Every send of the phase is posted
// before any receive, so the pattern cannot deadlock; a sender and a
// receiver meet the same plan entries in the same order, so position in
// the message needs no header.
func (h *Hierarchy) fillPhaseMPX(r *mpx.Rank, x *exchange, plan []fillDest, phase int) {
	me, nf := r.ID(), len(h.Fields)
	prolong := phase == phaseProlong
	for i := range plan {
		d := &plan[i]
		if r.SameShard(d.g.Owner) {
			continue
		}
		for j := range d.ops {
			op := &d.ops[j]
			if op.prolong != prolong || op.src.Owner != me {
				continue
			}
			dense, n := h.packed(op)
			buf := slices.Grow(x.send[d.g.Owner], n*nf)
			k := len(buf)
			buf = buf[:k+n*nf]
			from := op.rows(op.from)
			for f := range nf {
				grid.CopyRows(buf[k+f*n:], dense, op.src.Patch.FieldAt(f), from)
			}
			x.send[d.g.Owner] = buf
		}
	}
	x.post(r, phase)
	for i := range plan {
		d := &plan[i]
		if d.g.Owner != me {
			continue
		}
		for j := range d.ops {
			op := &d.ops[j]
			switch {
			case op.prolong != prolong:
			case r.SameShard(op.src.Owner):
				h.runFillOp(d.g.Patch, op)
			default:
				dense, n := h.packed(op)
				data := x.next(r, phase, op.src.Owner, n*nf)
				for f := range nf {
					h.applyFillOp(d.g.Patch.FieldAt(f), op, data[f*n:(f+1)*n], dense)
				}
			}
		}
	}
	x.finish(r, phase)
	r.Barrier()
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

// RestrictMPX performs RestrictData's motion through the world: when
// the parent's owner is in another shard, each fine grid's owner
// restricts over the fine grid's coarsened box straight into the
// message for it, which copies the part inside the parent's interior
// out of the message — the cells grid.Restrict's overlap computation
// writes. A parent's owner restricts a fine grid of its own shard
// directly: it writes only its parents' interiors, and nothing writes
// the fine level in this phase. Both walk the cached restriction plan
// in place.
func (h *Hierarchy) RestrictMPX(r *mpx.Rank, level int) {
	if !h.WithData || level <= 0 || len(h.Fields) == 0 {
		return
	}
	me := r.ID()
	plan := h.restrictDataPlan(level)
	x := getExchange(r.Size())
	defer exchangePool.Put(x)
	nf := len(h.Fields)

	for i := range plan {
		d := &plan[i]
		to := d.parent.Owner
		if r.SameShard(to) {
			continue
		}
		for _, g := range d.fines {
			if g.Owner != me {
				continue
			}
			coarse := g.Box.Coarsen(h.RefFactor)
			nc := int(coarse.NumCells())
			buf := slices.Grow(x.send[to], nc*nf)
			for _, f := range h.Fields {
				k := len(buf)
				buf = buf[:k+nc]
				grid.RestrictInto(buf[k:], coarse, coarse, g.Patch, f, h.RefFactor)
			}
			x.send[to] = buf
		}
	}
	x.post(r, phaseRestrict)
	for i := range plan {
		d := &plan[i]
		if d.parent.Owner != me {
			continue
		}
		for _, g := range d.fines {
			if r.SameShard(g.Owner) {
				for _, f := range h.Fields {
					grid.Restrict(d.parent.Patch, g.Patch, f, h.RefFactor)
				}
				continue
			}
			coarse := g.Box.Coarsen(h.RefFactor)
			nc := int(coarse.NumCells())
			data := x.next(r, phaseRestrict, g.Owner, nc*nf)
			reg := coarse.Intersect(d.parent.Box)
			if reg.Empty() {
				continue
			}
			to, from := grid.RowsOf(d.parent.Patch.Grown(), reg), grid.RowsOf(coarse, reg)
			for k, f := range h.Fields {
				grid.CopyRows(d.parent.Patch.Field(f), to, data[k*nc:(k+1)*nc], from)
			}
		}
	}
	x.finish(r, phaseRestrict)
	r.Barrier()
}
