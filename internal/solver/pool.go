package solver

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs patch kernels in parallel across host cores. The
// distributed execution model charges virtual time per simulated
// processor, but the arithmetic itself is genuinely parallel Go: each
// simulated processor's grids are advanced by worker goroutines.
//
// A nil *Pool is valid and runs everything inline on the calling
// goroutine, so callers never need to branch on whether one is set.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker count; n <= 0 selects
// GOMAXPROCS workers.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the pool's concurrency; 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach invokes fn(i) for i in [0,n) across the pool's workers and
// waits for completion. fn must be safe to call concurrently for
// distinct i.
//
// A panic in fn reaches the caller, as it would on the inline path:
// once one fn panics no further index is claimed, and after the
// workers stop ForEach re-panics with the value of the lowest index
// that panicked. Indices are claimed in increasing order and a claimed
// index always runs, so that index is the one the inline loop would
// have panicked on, whatever the scheduling.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Work-stealing by atomic counter: no per-call channel fill, no
	// per-index send/receive — this runs on every level step. One
	// struct holds everything the workers share, so the call makes one
	// heap allocation for it rather than one per variable.
	var run struct {
		wg     sync.WaitGroup
		next   atomic.Int64
		mu     sync.Mutex
		failed int // lowest index whose fn panicked; n while none has
		value  any
	}
	run.failed = n
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer run.wg.Done()
			i := 0
			defer func() {
				if v := recover(); v != nil {
					run.next.Store(int64(n))
					run.mu.Lock()
					if i < run.failed {
						run.failed, run.value = i, v
					}
					run.mu.Unlock()
				}
			}()
			for {
				i = int(run.next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	run.wg.Wait()
	if run.failed < n {
		panic(run.value)
	}
}

// Chunks returns how many contiguous chunks ForChunks cuts n items
// into: one per worker, but none shorter than minLen items, so a nil
// pool, a one-worker pool or a short list is one chunk.
func (p *Pool) Chunks(n, minLen int) int {
	return max(1, min(p.Workers(), n/minLen))
}

// ForChunks cuts [0,n) into Chunks(n, minLen) contiguous ranges, the
// c-th before the (c+1)-th, and runs fn(c, lo, hi) for each over the
// pool; a single chunk runs inline. A caller that writes chunk c's
// output to its own slot and folds the slots back in c order gets the
// serial result whatever the pool's width.
func (p *Pool) ForChunks(n, minLen int, fn func(c, lo, hi int)) {
	k := p.Chunks(n, minLen)
	p.ForEach(k, func(c int) { fn(c, c*n/k, (c+1)*n/k) })
}
