// Package costdb provides the offline per-layer cost database the SCAR
// framework consults during scheduling. The paper's MCM-Reconfig engine
// receives "expected latency and energy of each layer on each chiplet
// class offline-analyzed by MAESTRO" (Section IV-A); this package is that
// database: it memoizes internal/maestro results per (layer shape,
// dataflow, chiplet spec). The expectation of Equation (1) is formed from
// these results by eval.Compile.
package costdb

import (
	"math"
	"sync"
	"sync/atomic"

	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/workload"
)

// key identifies a cached cost-model evaluation by everything
// maestro.Analyze reads: the layer's shape, the dataflow's mapping
// parameters and the full chiplet spec. Layers are keyed by shape, not
// by name, so identical layers across models share entries — exactly
// what makes the offline database practical; dataflows are keyed by
// their parameters, not their name, for the same reason. The spec's
// float fields are held as their bits, so the key hashes and compares
// as one block of memory, and the one mapping parameter the style reads
// is kept, so that block stays within 128 bytes.
type key struct {
	op                   workload.OpType
	n, k, c, y, x, r, s  int
	stride, bytesPerElem int
	style                dataflow.Style
	mapping              int // AtomicC under WeightStationary, MaxMaps otherwise
	pes                  int
	l2                   int64
	noc, clock           uint64
}

func makeKey(l workload.Layer, df dataflow.Dataflow, spec maestro.Chiplet) key {
	k := key{
		style: df.Style, mapping: df.MaxMaps,
		pes: spec.NumPEs, l2: spec.L2Bytes,
		noc: math.Float64bits(spec.NoCBandwidth), clock: math.Float64bits(spec.ClockHz),
	}
	if df.Style == dataflow.WeightStationary {
		k.mapping = df.AtomicC
	}
	k.setShape(&l, l.N)
	return k
}

// setShape sets the key's layer fields to l's shape at batch n.
func (k *key) setShape(l *workload.Layer, n int) {
	k.op, k.n, k.k, k.c, k.y, k.x, k.r, k.s = l.Type, n, l.K, l.C, l.Y, l.X, l.R, l.S
	k.stride, k.bytesPerElem = l.Stride, l.BytesPerElem
}

// dataflow returns a dataflow that keys like the one the key was made
// from.
func (k key) dataflow() dataflow.Dataflow {
	if k.style == dataflow.WeightStationary {
		return dataflow.Dataflow{Style: k.style, AtomicC: k.mapping}
	}
	return dataflow.Dataflow{Style: k.style, MaxMaps: k.mapping}
}

// spec returns the chiplet spec the key was made from.
func (k key) spec() maestro.Chiplet {
	return maestro.Chiplet{
		NumPEs: k.pes, L2Bytes: k.l2,
		NoCBandwidth: math.Float64frombits(k.noc), ClockHz: math.Float64frombits(k.clock),
	}
}

// inflight tracks one in-progress Analyze so concurrent requests for the
// same key wait for the first caller instead of recomputing.
type inflight struct {
	done chan struct{}
	r    maestro.Result
}

// DB is a concurrency-safe memoizing layer-cost database.
type DB struct {
	params maestro.Params

	mu      sync.RWMutex
	cache   map[key]maestro.Result
	pending map[key]*inflight

	hits   atomic.Int64
	misses atomic.Int64
}

// New creates a database using the given cost-model calibration.
func New(params maestro.Params) *DB {
	return &DB{
		params:  params,
		cache:   make(map[key]maestro.Result),
		pending: make(map[key]*inflight),
	}
}

// Cost returns the intra-chiplet cost of layer l under dataflow df on a
// chiplet with the given spec, computing and caching it on first use.
//
// Concurrent callers missing on the same key are coalesced
// singleflight-style: exactly one runs maestro.Analyze, the rest wait for
// its result. This both keeps the parallel search from burning cores on
// duplicate analyses and dedups table-build work when several compiled
// evaluation sessions spin up at once.
func (db *DB) Cost(l workload.Layer, df dataflow.Dataflow, spec maestro.Chiplet) maestro.Result {
	k := makeKey(l, df, spec)
	db.mu.RLock()
	r, ok := db.cache[k]
	db.mu.RUnlock()
	if ok {
		db.hits.Add(1)
		return r
	}

	db.mu.Lock()
	if r, ok := db.cache[k]; ok {
		// Lost the race to a completed computation.
		db.mu.Unlock()
		db.hits.Add(1)
		return r
	}
	if fl, ok := db.pending[k]; ok {
		// Another goroutine is computing this key: wait for it.
		db.mu.Unlock()
		<-fl.done
		db.hits.Add(1)
		return fl.r
	}
	fl := &inflight{done: make(chan struct{})}
	db.pending[k] = fl
	db.mu.Unlock()

	fl.r = maestro.Analyze(l, df, spec, db.params)

	db.mu.Lock()
	db.cache[k] = fl.r
	delete(db.pending, k)
	db.mu.Unlock()
	db.misses.Add(1)
	close(fl.done)
	return fl.r
}

// Column sets out[i] to Cost(layers[i].WithBatch(bp), df, spec) for every
// layer, under one read lock for all the layers already cached; the
// others go through Cost. Each layer given counts as one lookup, as
// through Cost: a caller that passes one layer per distinct shape, as
// eval.Compile does, counts one lookup per shape.
func (db *DB) Column(layers []workload.Layer, bp int, df dataflow.Dataflow, spec maestro.Chiplet, out []maestro.Result) {
	var missed []int
	k := makeKey(workload.Layer{}, df, spec)
	db.mu.RLock()
	for i := range layers {
		k.setShape(&layers[i], bp)
		r, ok := db.cache[k]
		if !ok {
			missed = append(missed, i)
		}
		out[i] = r
	}
	db.mu.RUnlock()
	db.hits.Add(int64(len(layers) - len(missed)))
	for _, i := range missed {
		out[i] = db.Cost(layers[i].WithBatch(bp), df, spec)
	}
}

// Size returns the number of cached entries (for tests and diagnostics).
func (db *DB) Size() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.cache)
}

// Stats returns the lookup counters: hits is the number of Cost calls
// served without running the cost model (cache hits plus singleflight
// waiters), misses the number of maestro.Analyze computations performed.
func (db *DB) Stats() (hits, misses int64) {
	return db.hits.Load(), db.misses.Load()
}
