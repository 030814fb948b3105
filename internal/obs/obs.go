// Package obs is the daemon's dependency-free observability layer:
// a metrics registry of atomic counters, gauges and fixed-bucket
// latency histograms whose hot-path updates land in cache-line-padded
// per-shard blocks merged on read (metrics.go, same philosophy as the
// serve-layer cache shards — recording a request costs two uncontended
// atomic adds and zero allocations); a span-based per-request tracer
// with bounded ring-buffer retention that exports through the existing
// internal/trace Chrome-trace format, so request timelines open in
// chrome://tracing next to schedule timelines (tracer.go); and slog
// helpers plus request-ID context plumbing for structured logging
// across serve handlers and daemon lifecycle (log.go).
//
// Everything here is observational: nothing in this package feeds back
// into scheduling or simulation decisions, so enabling it cannot
// perturb search results or the simulator's bit-identical replay
// contract.
package obs

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"
)

// DefaultTraceBuffer is the retained-request capacity of the tracer
// built by New when Config.TraceBuffer is zero.
const DefaultTraceBuffer = 256

// Config tunes New. The zero value is the production default.
type Config struct {
	// Log is the structured logger (nil = discard).
	Log *slog.Logger
	// TraceBuffer is the number of completed request traces the tracer
	// retains (ring buffer, oldest overwritten). 0 means
	// DefaultTraceBuffer; negative disables tracing entirely.
	TraceBuffer int
}

// Obs bundles one deployment's observability handles: the metrics
// registry, the request tracer (nil when disabled) and the structured
// logger (never nil — a discard logger when none was configured).
type Obs struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *slog.Logger

	idPrefix string
	idSeq    atomic.Uint64
}

// New assembles an Obs from the config: a fresh registry, a tracer
// sized by Config.TraceBuffer and the given (or discard) logger.
func New(cfg Config) *Obs {
	buf := cfg.TraceBuffer
	if buf == 0 {
		buf = DefaultTraceBuffer
	}
	var tr *Tracer
	if buf > 0 {
		tr = NewTracer(buf, DefaultMaxPhases)
	}
	log := cfg.Log
	if log == nil {
		log = Discard()
	}
	return &Obs{
		Metrics: NewRegistry(),
		Tracer:  tr,
		Log:     log,
		// The prefix makes IDs from different daemon incarnations
		// distinguishable in aggregated logs; uniqueness within one
		// process comes from the sequence number alone.
		idPrefix: fmt.Sprintf("%05x", time.Now().UnixNano()>>10&0xfffff),
	}
}

// NextRequestID returns a process-unique request ID ("r<prefix>-<n>")
// for threading through logs, response headers and traces.
func (o *Obs) NextRequestID() string {
	return fmt.Sprintf("r%s-%d", o.idPrefix, o.idSeq.Add(1))
}
