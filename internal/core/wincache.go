package core

import (
	"encoding/binary"
	"sync"

	"example.com/scar/internal/eval"
)

// This file holds the search's two memoization layers. The run-wide one
// memoizes whole window searches; the window-scoped one memoizes leaf
// evaluations inside the only window searches that can score one leaf
// twice.

// windowMemo memoizes whole window searches for one scheduling run.
// Within a run, a window search is a pure function of its assignment's
// layer ranges: its RNG root is mixSeed(opts.Seed, assignmentSeed(w))
// and its budgets derive from w. Sibling MCM-Reconfig candidates often
// contain identical windows (greedy packings at adjacent split counts
// share assignments), and a repeated window skips PROV, SEG and SCHED:
// it returns a clone of the stored segments and adds the stored count of
// logical evaluations to the run's total. This is where a run's reuse
// lives. Leaves of different assignments never coincide, because a
// window's segments cover exactly its ranges, and the rule-based tree
// search never scores one leaf twice.
//
// The key is the exact sequence of the assignment's ranges, not a hash
// of it. Concurrency: a mutex-guarded map probed once per window search.
// Two workers racing on one assignment both compute it and the first to
// finish stores it, so no pool task ever blocks on another. A search cut
// short by the stop check is never stored.
type windowMemo struct {
	mu sync.Mutex
	m  map[string]windowOutcome
}

// windowOutcome is one window search's result: the chosen segments or
// the error, and the logical leaf evaluations the search requested.
type windowOutcome struct {
	segs  []eval.Segment
	err   error
	evals int
	// aborted marks a search cut short by the stop check; it is
	// never memoized.
	aborted bool
}

func newWindowMemo() *windowMemo {
	return &windowMemo{m: make(map[string]windowOutcome)}
}

// appendAssignmentKey appends an assignment's exact fingerprint to dst
// and returns it: every model's First and Last as varints. All
// assignments of one run have one range per model, so the encoding is
// exact.
func appendAssignmentKey(dst []byte, w windowAssignment) []byte {
	for _, rg := range w {
		dst = binary.AppendVarint(dst, int64(rg.First))
		dst = binary.AppendVarint(dst, int64(rg.Last))
	}
	return dst
}

// get looks an assignment up without copying its fingerprint.
func (m *windowMemo) get(k []byte) (windowOutcome, bool) {
	m.mu.Lock()
	out, ok := m.m[string(k)]
	m.mu.Unlock()
	return out, ok
}

// put stores a finished search unless a racing worker stored the same
// assignment first, and reports whether it did.
func (m *windowMemo) put(k string, out windowOutcome) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[k]; ok {
		return false
	}
	m.m[k] = out
	return true
}

// windowCache memoizes leaf evaluations inside one window search. Only
// two searches can score one leaf twice: the evolutionary search
// (duplicate genomes, and a tree-search fallback that may revisit its
// placements) and exhaustive PROV (the same segment plans under two node
// allocations). Only those get a cache; the rule-based tree search
// evaluates its leaves directly.
//
// A window evaluation is a pure function of its segment multiset — the
// compiled session holds no mutable state and any worker Scratch yields
// bit-identical metrics — which is what makes memoization sound. The key
// is the exact (model, layer range, chiplet) sequence of the window's
// segments.
//
// Concurrency: a plain RWMutex map, since one search's combo tasks run
// in parallel. Two workers racing on the same key may both compute the
// (identical) value. Len — the number of distinct leaves evaluated — is
// deterministic across worker counts because the set of leaves the
// search visits is.
type windowCache struct {
	mu sync.RWMutex
	m  map[string]eval.WindowEval
}

func newWindowCache() *windowCache {
	return &windowCache{m: make(map[string]eval.WindowEval)}
}

// appendWindowKey appends a window fingerprint to dst and returns it:
// model, window-absolute layer range and chiplet per segment, each as a
// uvarint. The encoding is prefix-free, so two distinct windows never
// alias to one cache entry, while the small values of real windows take a
// byte or two each. Callers reuse dst across evaluations, so the search's
// cache probes allocate nothing.
func appendWindowKey(dst []byte, segs []eval.Segment) []byte {
	for _, s := range segs {
		dst = binary.AppendUvarint(dst, uint64(s.Model))
		dst = binary.AppendUvarint(dst, uint64(s.First))
		dst = binary.AppendUvarint(dst, uint64(s.Last))
		dst = binary.AppendUvarint(dst, uint64(s.Chiplet))
	}
	return dst
}

// get looks a fingerprint up without copying it (the map index converts
// the byte key in place).
func (c *windowCache) get(k []byte) (eval.WindowEval, bool) {
	c.mu.RLock()
	wm, ok := c.m[string(k)]
	c.mu.RUnlock()
	return wm, ok
}

// put stores a window evaluation, copying the fingerprint for ownership.
func (c *windowCache) put(k []byte, wm eval.WindowEval) {
	c.mu.Lock()
	c.m[string(k)] = wm
	c.mu.Unlock()
}

// Len returns the number of distinct leaves evaluated.
func (c *windowCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
