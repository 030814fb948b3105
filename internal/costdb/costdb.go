// Package costdb provides the offline per-layer cost database the SCAR
// framework consults during scheduling. The paper's MCM-Reconfig engine
// receives "expected latency and energy of each layer on each chiplet
// class offline-analyzed by MAESTRO" (Section IV-A); this package is that
// database: it memoizes internal/maestro results per (layer, dataflow,
// chiplet class) and derives the expectation of Equation (1).
package costdb

import (
	"sync"
	"sync/atomic"

	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// key identifies a cached cost-model evaluation. Layers are keyed by
// shape, not by name, so identical layers across models share entries —
// exactly what makes the offline database practical.
type key struct {
	op                   workload.OpType
	n, k, c, y, x, r, s  int
	stride, bytesPerElem int
	df                   string
	pes                  int
	l2                   int64
}

func makeKey(l workload.Layer, df dataflow.Dataflow, spec maestro.Chiplet) key {
	return key{
		op: l.Type, n: l.N, k: l.K, c: l.C, y: l.Y, x: l.X, r: l.R, s: l.S,
		stride: l.Stride, bytesPerElem: l.BytesPerElem,
		df: df.Name, pes: spec.NumPEs, l2: spec.L2Bytes,
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

// dataflowShare is one dataflow class of a package as Equation (1)
// weighs it: the spec of its first chiplet (all chiplets of one dataflow
// class share a spec in the paper's templates) and its share n_df / |C|.
type dataflowShare struct {
	df    dataflow.Dataflow
	spec  maestro.Chiplet
	count int
	w     float64
}

// mixtureOf resolves a package's dataflow classes in first-appearance
// order.
func mixtureOf(m *mcm.MCM) []dataflowShare {
	var mix []dataflowShare
	for _, c := range m.Chiplets {
		i := 0
		for i < len(mix) && mix[i].df.Name != c.Dataflow.Name {
			i++
		}
		if i == len(mix) {
			mix = append(mix, dataflowShare{df: c.Dataflow, spec: c.Spec})
		}
		mix[i].count++
	}
	total := float64(m.NumChiplets())
	for i := range mix {
		mix[i].w = float64(mix[i].count) / total
	}
	return mix
}

func (db *DB) expected(l workload.Layer, mix []dataflowShare) (latSec, energyPJ float64) {
	for _, c := range mix {
		r := db.Cost(l, c.df, c.spec)
		latSec += c.w * r.ComputeSeconds
		energyPJ += c.w * r.EnergyPJ
	}
	return latSec, energyPJ
}

// Expected implements Equation (1) of the paper and its energy analogue:
// the dataflow-composition-weighted expectation of a layer's cost on the
// package,
//
//	E(Lat(l)) = sum_i  n_df_i / |C| * Lat(l -> df_i)
//
// It returns expected latency (seconds) and energy (pJ). The expectation
// is what the MCM-Reconfig and PROV engines use before chiplet assignment
// is known.
func (db *DB) Expected(l workload.Layer, m *mcm.MCM) (latSec, energyPJ float64) {
	return db.expected(l, mixtureOf(m))
}

// ExpectedModel sums Expected over a model's layers at its batch size,
// giving E(P_i) for the PROV engine's Equation (2).
func (db *DB) ExpectedModel(model workload.Model, m *mcm.MCM) (latSec, energyPJ float64) {
	mix := mixtureOf(m)
	for _, l := range model.Layers {
		lat, e := db.expected(l.WithBatch(model.Batch), mix)
		latSec += lat
		energyPJ += e
	}
	return latSec, energyPJ
}

// ExpectedLayers returns Expected for every layer of every model of the
// scenario at the model's batch size, as latSec[model][layer] and
// energyPJ[model][layer]. The package's composition is resolved once, not
// per layer.
func (db *DB) ExpectedLayers(sc *workload.Scenario, m *mcm.MCM) (latSec, energyPJ [][]float64) {
	mix := mixtureOf(m)
	latSec = make([][]float64, len(sc.Models))
	energyPJ = make([][]float64, len(sc.Models))
	for mi, model := range sc.Models {
		latSec[mi] = make([]float64, len(model.Layers))
		energyPJ[mi] = make([]float64, len(model.Layers))
		for li, l := range model.Layers {
			latSec[mi][li], energyPJ[mi][li] = db.expected(l.WithBatch(model.Batch), mix)
		}
	}
	return latSec, energyPJ
}
