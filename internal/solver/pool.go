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
	// per-index send/receive — this runs on every level step.
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
