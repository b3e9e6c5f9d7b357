package solver

import "sync"

// Kernel scratch arena: the upwind advection step reads its
// neighbours' pre-step values, so it writes one full-patch work array
// per Step, and Step runs for every grid on every level substep.
// Allocating it with make() put ~one large garbage slice per grid-step
// on the heap; the arena recycles them across steps and across
// goroutines (the pool advances many grids concurrently, so the arena
// must be concurrency-safe — sync.Pool is). The fluxed kernels need
// none: their update reads only fluxes and the cell itself, so it is
// applied in place.
//
// Ownership rule: a scratch slice is owned by exactly one kernel
// invocation between getScratch and putScratch; it is never retained
// past the Step call that borrowed it. Contents are NOT zeroed on
// reuse — callers must write every element they later read.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// getScratch borrows a slice of length n with arbitrary contents.
// Return it with putScratch when the step is done.
func getScratch(n int) *[]float64 {
	sp := scratchPool.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// putScratch returns a borrowed slice to the arena.
func putScratch(sp *[]float64) { scratchPool.Put(sp) }
