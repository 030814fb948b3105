package serve

import (
	"log/slog"
	"net/http"
	"sort"
	"time"

	"example.com/scar/internal/obs"
)

// Observability wiring for the service: per-endpoint request metrics,
// request-ID + tracing middleware, and the service's own counters.
// Metric recording on the request path costs two uncontended atomic
// adds and zero allocations (internal/obs); tracing and per-request
// logging only run when a tracer is configured and the log level admits
// them.

// statusClasses are the exposed status-class label values; index with
// classIndex.
var statusClasses = [3]string{"2xx", "4xx", "5xx"}

// classIndex buckets an HTTP status into statusClasses. 499 (client
// closed) is a 4xx; anything below 400 counts as success.
func classIndex(status int) int {
	switch {
	case status >= 500:
		return 2
	case status >= 400:
		return 1
	default:
		return 0
	}
}

// endpointMetrics are one endpoint's per-status-class instruments.
type endpointMetrics struct {
	hist [3]*obs.Histogram
	reqs [3]*obs.Counter
}

// httpEndpoints is the fixed endpoint label set; instruments are
// created up front so the request path never takes the registry lock.
var httpEndpoints = []string{"schedule", "simulate", "stats", "healthz", "metrics", "trace"}

// initObs wires the service's observability state: per-endpoint
// histograms/counters, the service's cache and admission counters, and
// registry views of the cost database. Called once from NewWithConfig.
func (s *Service) initObs(o *obs.Obs) {
	if o == nil {
		o = obs.New(obs.Config{})
	}
	s.o = o
	reg := o.Metrics
	s.httpMetrics = make(map[string]*endpointMetrics, len(httpEndpoints))
	for _, ep := range httpEndpoints {
		em := &endpointMetrics{}
		for ci, class := range statusClasses {
			em.hist[ci] = reg.Histogram("scar_http_request_duration_seconds",
				"HTTP request latency by endpoint and status class.",
				obs.DefLatencyBuckets, "endpoint", ep, "code", class)
			em.reqs[ci] = reg.Counter("scar_http_requests_total",
				"HTTP requests by endpoint and status class.",
				"endpoint", ep, "code", class)
		}
		s.httpMetrics[ep] = em
	}

	// The service's totals are registry counters, so Stats and /metrics
	// read one source; the cost database and the service state are read
	// at scrape time through func views.
	s.requests = reg.Counter("scar_schedule_requests_total", "Schedule calls (API and HTTP).")
	s.scheduleCalls = reg.Counter("scar_schedule_searches_total", "Underlying searches actually run.")
	s.cacheHits = reg.Counter("scar_schedule_cache_hits_total", "Schedule requests served without a search.")
	s.simulations = reg.Counter("scar_simulations_total", "Simulate calls that reached the simulator.")
	s.saturatedRejects = reg.Counter("scar_saturated_rejects_total", "Requests shed with 429 while saturated.")
	s.degradedAnswers = reg.Counter("scar_degraded_answers_total", "Saturated requests answered from the stale store.")
	s.drainRejects = reg.Counter("scar_drain_rejects_total", "Requests rejected while draining.")
	reg.CounterFunc("scar_costdb_hits_total", "Cost-database cache hits.",
		func() float64 { h, _ := s.db.Stats(); return float64(h) })
	reg.CounterFunc("scar_costdb_misses_total", "Cost-model computations performed.",
		func() float64 { _, m := s.db.Stats(); return float64(m) })
	reg.GaugeFunc("scar_cached_schedules", "Resident completed schedule-cache entries.",
		func() float64 { c, _ := s.cache.sizes(); return float64(c) })
	reg.GaugeFunc("scar_inflight_searches", "Searches currently in flight.",
		func() float64 { _, i := s.cache.sizes(); return float64(i) })
	reg.GaugeFunc("scar_stale_schedules", "Degraded-serving store size.",
		func() float64 { return float64(s.stale.size()) })
	reg.GaugeFunc("scar_costdb_entries", "Cost-database entries.",
		func() float64 { return float64(s.db.Size()) })
	reg.GaugeFunc("scar_search_slots_in_use", "Concurrent-search slots currently held.",
		func() float64 {
			if s.searchSem == nil {
				return 0
			}
			return float64(len(s.searchSem))
		})
	reg.GaugeFunc("scar_draining", "1 while the service drains for shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("scar_uptime_seconds", "Seconds since service construction.",
		func() float64 { return time.Since(s.started).Seconds() })
}

// Obs exposes the service's observability bundle (registry, tracer,
// logger) — the daemon mounts /metrics and /trace from it and examples
// read quantiles directly.
func (s *Service) Obs() *obs.Obs { return s.o }

// statusWriter captures the handler's status code for metrics, logs
// and traces.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps one endpoint handler with the full observability
// stack: request ID, trace handle, latency histogram + request counter
// labeled (endpoint, status class), and a structured completion log
// line (debug for routine requests, warn for 5xx).
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.httpMetrics[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.o.NextRequestID()
		w.Header().Set("X-Request-ID", id)
		rt := s.o.Tracer.Start(endpoint)
		rt.SetID(id)
		ctx := obs.WithTrace(obs.WithRequestID(r.Context(), id), rt)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		ci := classIndex(sw.status)
		em.hist[ci].Observe(elapsed.Seconds())
		em.reqs[ci].Inc()
		rt.Finish(http.StatusText(sw.status))
		lvl := slog.LevelDebug
		if sw.status >= 500 {
			lvl = slog.LevelWarn
		}
		s.o.Log.LogAttrs(ctx, lvl, "http request",
			slog.String("request_id", id),
			slog.String("endpoint", endpoint),
			slog.String("method", r.Method),
			slog.Int("status", sw.status),
			slog.Float64("elapsed_ms", float64(elapsed.Microseconds())/1e3),
		)
	}
}

// EndpointStats is one endpoint's merged latency view in Stats: the
// request count and interpolated percentiles across all status
// classes, in milliseconds.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// endpointStats merges each endpoint's status-class histograms into
// per-endpoint percentiles; endpoints that served nothing are omitted.
func (s *Service) endpointStats() []EndpointStats {
	var out []EndpointStats
	for ep, em := range s.httpMetrics {
		merged := em.hist[0].Snapshot()
		for _, h := range em.hist[1:] {
			merged = merged.Merge(h.Snapshot())
		}
		n := merged.Count()
		if n == 0 {
			continue
		}
		out = append(out, EndpointStats{
			Endpoint: ep,
			Requests: int64(n),
			P50Ms:    merged.Quantile(0.50) * 1e3,
			P95Ms:    merged.Quantile(0.95) * 1e3,
			P99Ms:    merged.Quantile(0.99) * 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}
