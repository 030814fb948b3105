package core

import (
	"encoding/binary"
	"sync"

	"example.com/scar/internal/eval"
)

// windowCache memoizes full window evaluations for one scheduling run.
// Sibling MCM-Reconfig candidates frequently contain identical windows
// (greedy packings at adjacent split counts share window assignments, and
// their tree searches then probe identical segment placements), so the
// cache is shared across every candidate, window and combo task of a run.
//
// A window evaluation is a pure function of its segment multiset — the
// compiled session holds no mutable state and any worker Scratch yields
// bit-identical metrics — which is what makes memoization sound. The
// cache key is the exact (model, layer range, chiplet) sequence of the
// window's segments.
//
// Concurrency: a plain RWMutex map. Two workers racing on the same key
// may both compute the (identical) value; correctness and determinism are
// unaffected, only a little compute is duplicated. Len — the number of
// distinct windows evaluated — is deterministic across worker counts
// because the *set* of windows the search visits is deterministic even
// though the visiting order is not.
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

// Len returns the number of distinct windows evaluated.
func (c *windowCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
