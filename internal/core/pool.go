package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel execution substrate of the two-level search.
// Both levels of Figure 3 are embarrassingly parallel — MCM-Reconfig
// candidates are independent, windows within a candidate are independent,
// and segmentation-combo tree searches within a window are independent —
// so a single bounded pool is shared by every level. Determinism does not
// come from the pool (task completion order is arbitrary): it comes from
// per-task derived RNG seeds (mixSeed) plus index-ordered reductions in
// the scheduler, which make every task's work and the final winner
// independent of interleaving.

// pool bounds the helper goroutines recruited by the search and hands
// every concurrently-running task a distinct worker identity in
// [0, NWorkers), which the scheduler uses to give each worker its own
// evaluation Scratch. The calling goroutine always works through its own
// task list, and helpers are added only while a slot is free, so nested
// fan-outs (candidates -> windows -> combos) can share one pool without
// deadlock or unbounded concurrency.
type pool struct {
	// slots holds one worker-identity token per helper goroutine allowed
	// beyond the caller (ids 1..NWorkers-1; the root caller is id 0). A
	// token is held for the lifetime of one helper and returned when it
	// finishes, so ids held by live goroutines are always distinct — the
	// invariant that makes per-worker scratch state race-free. An empty
	// channel capacity degrades forEach to a plain loop.
	slots chan int
}

// newPool builds a pool for the given worker count (0 = GOMAXPROCS).
// A pool of n workers recruits at most n-1 helpers, the caller being the
// n-th; workers <= 1 yields a strictly serial pool.
func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{slots: make(chan int, workers-1)}
	for id := 1; id < workers; id++ {
		p.slots <- id
	}
	return p
}

// NWorkers returns the maximum number of concurrently-running tasks, and
// the exclusive upper bound of the worker ids passed to forEach's fn.
func (p *pool) NWorkers() int { return cap(p.slots) + 1 }

// forEach runs fn(worker, i) for every i in [0, n) and returns once all
// calls completed. self is the calling task's own worker id (0 at the
// root; inside a nested fan-out, the id forEach handed the enclosing fn).
// Iterations may run concurrently, bounded by the pool; no two concurrent
// fn invocations see the same worker id. fn must communicate only through
// per-index storage, per-worker state, or atomics, and must not depend on
// execution order.
func (p *pool) forEach(self, n int, fn func(worker, i int)) {
	if n <= 1 || cap(p.slots) == 0 {
		for i := 0; i < n; i++ {
			fn(self, i)
		}
		return
	}
	var next atomic.Int64
	work := func(worker int) {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(worker, int(i))
		}
	}
	var wg sync.WaitGroup
	helpers := n - 1
	if helpers > cap(p.slots) {
		helpers = cap(p.slots)
	}
recruit:
	for h := 0; h < helpers; h++ {
		select {
		case id := <-p.slots:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { p.slots <- id }()
				work(id)
			}()
		default:
			// Every slot is busy (we are inside a nested fan-out):
			// the caller handles the remainder inline.
			break recruit
		}
	}
	work(self)
	wg.Wait()
}
