// Package serve is the concurrent scheduling service behind the scarserve
// daemon: it wraps core.Scheduler behind a context-first request API with
// a singleflight-deduplicated schedule cache keyed by (scenario, MCM,
// objective, options) over a shared warm cost database. N identical
// concurrent requests trigger exactly one search — the waiters block on
// the in-flight entry and share its result. The compiled evaluator makes
// the underlying search tens of milliseconds, so a cache miss is an
// acceptable online cost and a hit is effectively free.
//
// The cache is sharded by key hash (shard.go): each power-of-two shard
// carries its own mutex, its own singleflight slots and its own LRU
// recency list, so the hit path of one key never contends with
// another's. The service's totals are internal/obs sharded counters,
// read by both Stats and /metrics.
//
// Cancellation is per caller: a follower abandons its wait the moment
// its own context dies while the shared search continues; a leader whose
// context dies returns an anytime partial result (or the context error),
// which is never cached — followers that were waiting re-issue the
// search under their own contexts. Requests may carry timeout_ms for a
// server-side search deadline independent of the connection.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"example.com/scar/internal/config"
	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/obs"
	"example.com/scar/internal/online"
	"example.com/scar/internal/workload"
)

// Request identifies one scheduling problem. Built-in inputs name a
// Table III scenario and a Figure 6 package pattern; custom inputs carry
// raw workload/MCM JSON in the config package's description format.
type Request struct {
	// Scenario is the Table III scenario number (1-10); ignored when
	// WorkloadJSON is set.
	Scenario int `json:"scenario,omitempty"`
	// WorkloadJSON is a custom workload description (config format).
	WorkloadJSON json.RawMessage `json:"workload_json,omitempty"`
	// Pattern, Width, Height and Profile pick a built-in package
	// (defaults: het-sides, 3x3, profile inferred from the scenario —
	// datacenter for 1-5, edge for 6-10). Ignored when MCMJSON is set.
	Pattern string `json:"pattern,omitempty"`
	Width   int    `json:"width,omitempty"`
	Height  int    `json:"height,omitempty"`
	Profile string `json:"profile,omitempty"`
	// MCMJSON is a custom MCM description (config format).
	MCMJSON json.RawMessage `json:"mcm_json,omitempty"`
	// Objective is "latency", "energy" or "edp" (default edp).
	Objective string `json:"objective,omitempty"`
	// TimeoutMS bounds this request's search in milliseconds. On
	// expiry the caller receives the best incumbent found so far
	// (Result.Partial set) or a deadline error when nothing feasible
	// was found yet. Zero applies the service's default request
	// timeout, if any. The timeout is not part of the cache key —
	// partial results are never cached, so two timeouts of the same
	// problem cannot alias.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MaxPackageDim bounds the wire-settable package grid: the search cost
// grows steeply with the chiplet count, so an arbitrary width/height
// from an untrusted client is a denial-of-service lever, not a
// scheduling request. The paper's largest package is 6x6.
const MaxPackageDim = 32

// MaxSimPackages, MaxSimClasses and MaxSimArrivals bound a /simulate
// request's replica count, class list and arrival count: the simulator
// sizes per-package state from the first, every class may cost a
// search, and every arrival is materialized before the event loop runs,
// so none of them may be arbitrary client input.
const (
	MaxSimPackages = 1024
	MaxSimClasses  = 64
	MaxSimArrivals = 1 << 20
)

// defaultSimRequestsPerClass bounds each class of a /simulate request
// that sets neither horizon_sec nor max_requests_per_class.
const defaultSimRequestsPerClass = 100

// withDefaults resolves the request's implied fields.
func (r Request) withDefaults() Request {
	if r.Pattern == "" {
		r.Pattern = "het-sides"
	}
	if r.Width == 0 {
		r.Width = 3
	}
	if r.Height == 0 {
		r.Height = 3
	}
	if r.Profile == "" {
		if r.WorkloadJSON == nil && r.Scenario >= 6 {
			r.Profile = "edge"
		} else {
			r.Profile = "datacenter"
		}
	}
	if r.Objective == "" {
		r.Objective = "edp"
	}
	return r
}

// validate rejects out-of-range wire fields at the boundary, before
// the request touches the cache or any search machinery. Defaulting
// alone is not enough: withDefaults only replaces zero values, so a
// negative width or timeout_ms would previously flow into mcm.ByName
// or the context machinery and surface as a confusing internal error
// instead of a clean 400. Called on the defaulted request.
func (r Request) validate() error {
	if r.Width < 1 || r.Height < 1 {
		return fmt.Errorf("serve: package dimensions must be positive, got %dx%d", r.Width, r.Height)
	}
	if r.Width > MaxPackageDim || r.Height > MaxPackageDim {
		return fmt.Errorf("serve: package dimensions %dx%d exceed the %dx%d limit", r.Width, r.Height, MaxPackageDim, MaxPackageDim)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	if r.WorkloadJSON == nil && r.Scenario < 0 {
		return fmt.Errorf("serve: negative scenario %d (want 1-10 or workload_json)", r.Scenario)
	}
	return nil
}

// key canonicalizes the request into the cache key's request half.
// Custom JSON inputs contribute a content hash, so byte-identical
// descriptions share an entry.
func (r Request) key() string {
	wl := fmt.Sprintf("sc%d", r.Scenario)
	if r.WorkloadJSON != nil {
		h := sha256.Sum256(r.WorkloadJSON)
		wl = "wl:" + hex.EncodeToString(h[:8])
	}
	pkg := fmt.Sprintf("%s:%dx%d:%s", r.Pattern, r.Width, r.Height, r.Profile)
	if r.MCMJSON != nil {
		h := sha256.Sum256(r.MCMJSON)
		pkg = "mcm:" + hex.EncodeToString(h[:8])
	}
	return wl + "|" + pkg + "|" + r.Objective
}

// build materializes the request's scenario and package.
func (r Request) build() (workload.Scenario, *mcm.MCM, core.Objective, error) {
	var sc workload.Scenario
	var err error
	switch {
	case r.WorkloadJSON != nil:
		sc, err = config.ParseWorkload(r.WorkloadJSON)
	case r.Scenario >= 1:
		sc, err = models.ScenarioByNumber(r.Scenario)
	default:
		err = fmt.Errorf("serve: request needs scenario (1-10) or workload_json")
	}
	if err != nil {
		return sc, nil, core.Objective{}, err
	}
	var pkg *mcm.MCM
	if r.MCMJSON != nil {
		pkg, err = config.ParseMCM(r.MCMJSON)
	} else {
		spec := maestro.DefaultDatacenterChiplet()
		if r.Profile == "edge" {
			spec = maestro.DefaultEdgeChiplet()
		} else if r.Profile != "datacenter" {
			return sc, nil, core.Objective{}, fmt.Errorf("serve: unknown profile %q (want datacenter or edge)", r.Profile)
		}
		pkg, err = mcm.ByName(r.Pattern, r.Width, r.Height, spec)
	}
	if err != nil {
		return sc, nil, core.Objective{}, err
	}
	obj, err := core.ObjectiveByName(r.Objective)
	if err != nil {
		return sc, nil, core.Objective{}, err
	}
	return sc, pkg, obj, nil
}

// entry is one singleflight cache slot. The creator closes done after
// filling res/err/transient; waiters block on done (or their own
// context) and then read the immutable fields. The trailing fields are
// cache bookkeeping owned by the entry's shard and guarded by its
// mutex: the intrusive LRU links, the completion flag, and the key
// (kept so an eviction found through the recency list can delete the
// map slot without a reverse lookup).
type entry struct {
	done chan struct{}
	sc   workload.Scenario
	pkg  *mcm.MCM
	res  *core.Result
	err  error
	// transient marks an entry whose leader was cancelled (or returned
	// a partial result): nothing cacheable was produced and the outcome
	// is specific to the leader's context, so waiting followers re-issue
	// the search under their own contexts instead of inheriting it.
	transient bool

	key        string
	completed  bool
	prev, next *entry
}

// DefaultMaxCachedSchedules bounds the schedule cache: keys are partly
// client-controlled (custom description hashes), so a long-running
// daemon must not grow without limit. The bound covers completed
// entries and is enforced by per-shard LRU eviction; in-flight entries
// are unevictable and not counted.
const DefaultMaxCachedSchedules = 1024

// Config tunes the service's cache fabric. The zero value is the
// production default.
type Config struct {
	// Shards is the cache shard fan-out, rounded up to a power of two;
	// 0 derives it from runtime.GOMAXPROCS (see defaultShardCount).
	Shards int
	// MaxCachedSchedules bounds resident completed schedules across all
	// shards; 0 means DefaultMaxCachedSchedules.
	MaxCachedSchedules int
	// MaxConcurrentSearches caps leader searches running at once (0 =
	// unlimited, the legacy fail-open behavior). Cache hits and
	// followers deduplicated onto an in-flight search never need a
	// slot — only requests that would start a new search are gated.
	MaxConcurrentSearches int
	// AdmissionWait bounds how long a gated request may wait for a
	// search slot before it is shed with ErrSaturated (0 =
	// DefaultAdmissionWait; negative = reject immediately). Saturated
	// answers carry a Retry-After derived from this bound.
	AdmissionWait time.Duration
	// FailPoints is test-only deterministic fault injection (see
	// FailPoints); leave nil in production.
	FailPoints *FailPoints
	// Obs is the observability bundle (metrics registry, request
	// tracer, structured logger). nil builds a default one: metrics and
	// tracing on, logging discarded. One Obs belongs to one Service —
	// sharing a registry across services would alias their series.
	Obs *obs.Obs
	// ExposeMetrics mounts GET /metrics (Prometheus text exposition)
	// and GET /trace (Chrome trace JSON of recent requests) on the
	// service handler. Off by default: the endpoints reveal workload
	// shape, so the operator opts in (scarserve -metrics).
	ExposeMetrics bool
}

// Service is the concurrent scheduling service. Safe for concurrent use.
type Service struct {
	db      *costdb.DB
	opts    core.Options
	optsKey string

	// requestTimeout is the default per-request search deadline applied
	// when a request carries no TimeoutMS (0 = none). Set it before the
	// service starts answering requests.
	requestTimeout time.Duration

	cache   *shardedCache
	started time.Time

	// Admission control (admission.go): searchSem caps concurrent
	// leader searches (nil = unlimited), admissionWait bounds the slot
	// wait, stale remembers past answers for degraded serving, and
	// draining flips on BeginDrain.
	searchSem     chan struct{}
	admissionWait time.Duration
	failPoints    *FailPoints
	stale         *staleStore
	draining      atomic.Bool

	// The service's totals, registered by initObs: Stats reads them and
	// /metrics exposes them.
	requests, scheduleCalls, cacheHits, simulations *obs.Counter
	saturatedRejects, drainRejects, degradedAnswers *obs.Counter

	// Observability (obs.go): the bundle, the pre-created per-endpoint
	// instruments, and whether /metrics + /trace are mounted.
	o             *obs.Obs
	httpMetrics   map[string]*endpointMetrics
	exposeMetrics bool
}

// New builds a service with a fresh cost database.
func New(opts core.Options) *Service {
	return NewWithDB(costdb.New(maestro.DefaultParams()), opts)
}

// NewWithDB builds a service over an existing (possibly pre-warmed or
// Load-ed) cost database, with the default cache configuration.
func NewWithDB(db *costdb.DB, opts core.Options) *Service {
	return NewWithConfig(db, opts, Config{})
}

// NewWithConfig builds a service with an explicit cache configuration.
func NewWithConfig(db *costdb.DB, opts core.Options, cfg Config) *Service {
	// The options are immutable after construction; fingerprint them
	// once so cache keys honor the full (scenario, MCM, objective,
	// options) tuple.
	oh := sha256.Sum256([]byte(fmt.Sprintf("%+v", opts)))
	maxStale := cfg.MaxCachedSchedules
	if maxStale <= 0 {
		maxStale = DefaultMaxCachedSchedules
	}
	// The stale store's purpose is answering for keys the LRU already
	// evicted, so it must be larger than the cache bound to ever do so.
	maxStale *= 2
	s := &Service{
		db:            db,
		opts:          opts,
		optsKey:       "opts:" + hex.EncodeToString(oh[:8]),
		cache:         newShardedCache(cfg.Shards, cfg.MaxCachedSchedules),
		started:       time.Now(),
		admissionWait: cfg.AdmissionWait,
		failPoints:    cfg.FailPoints,
		stale:         newStaleStore(maxStale),
	}
	if s.admissionWait == 0 {
		s.admissionWait = DefaultAdmissionWait
	}
	if cfg.MaxConcurrentSearches > 0 {
		s.searchSem = make(chan struct{}, cfg.MaxConcurrentSearches)
	}
	s.exposeMetrics = cfg.ExposeMetrics
	s.initObs(cfg.Obs)
	return s
}

// SetRequestTimeout installs a default per-request search deadline for
// requests that carry no explicit TimeoutMS. Call it once, before the
// service starts answering requests (it is not synchronized against
// in-flight Schedule calls).
func (s *Service) SetRequestTimeout(d time.Duration) { s.requestTimeout = d }

// DB exposes the shared cost database (persistence, diagnostics).
func (s *Service) DB() *costdb.DB { return s.db }

// Options returns the service's scheduler configuration.
func (s *Service) Options() core.Options { return s.opts }

// ScheduleResult is one resolved scheduling request.
type ScheduleResult struct {
	// Key is the cache key the request resolved to.
	Key string
	// Cached reports that no new search ran for this call (the result
	// came from a completed entry or from waiting on an in-flight one).
	Cached bool
	// Degraded marks a stale answer served because the service was
	// saturated: Result is the key's most recent completed search (it
	// may itself be partial), not a fresh resolution. Degraded answers
	// are always Cached.
	Degraded bool
	// Scenario and MCM are the materialized inputs; Result the scheduler
	// output.
	Scenario *workload.Scenario
	MCM      *mcm.MCM
	Result   *core.Result
}

// Schedule resolves a request through the cache, running at most one
// underlying search per key regardless of concurrency.
//
// ctx governs this caller only. A follower blocked on another caller's
// in-flight search unblocks the moment its own ctx is cancelled — the
// shared search keeps running for everyone else. A leader whose ctx is
// cancelled mid-search returns its anytime result (Result.Partial) or
// ctx's error; neither is cached, and any followers that were waiting on
// it re-issue the search under their own contexts, so one impatient
// client can never poison the cache or abort its neighbors.
func (s *Service) Schedule(ctx context.Context, req Request) (*ScheduleResult, error) {
	if err := s.checkAdmission(); err != nil {
		return nil, err
	}
	req = req.withDefaults()
	key := req.key() + "|" + s.optsKey
	s.requests.Inc()
	if err := req.validate(); err != nil {
		return nil, err
	}

	// The request deadline (TimeoutMS, or the service default) bounds
	// the whole resolution: waiting on another caller's in-flight
	// search counts against it exactly like searching does, so a
	// deduplicated follower still honors its own timeout_ms.
	ctx, cancel := s.searchContext(ctx, req)
	defer cancel()

	// Request tracing (internal/obs) is observational only: the handle
	// is nil unless the HTTP middleware (or an API caller) put one in
	// ctx, and every method on a nil handle is a no-op.
	rt := obs.TraceFrom(ctx)
	for {
		endLookup := rt.Phase("cache lookup")
		e, leader := s.cache.lookupOrStart(key)
		endLookup()
		if !leader {
			endWait := rt.Phase("await inflight")
			select {
			case <-e.done:
				endWait()
			case <-ctx.Done():
				endWait()
				return nil, fmt.Errorf("serve: request abandoned while awaiting in-flight search: %w", ctx.Err())
			}
			if e.transient {
				continue // leader cancelled; re-issue under our own ctx
			}
			if e.err != nil {
				return nil, e.err
			}
			s.cacheHits.Inc()
			return &ScheduleResult{Key: key, Cached: true, Scenario: &e.sc, MCM: e.pkg, Result: e.res}, nil
		}

		// Leader: the only path that starts a search, so the only one
		// gated by the concurrent-search limit. Saturation falls back to
		// the key's most recent stale answer (marked Degraded) when one
		// exists, and sheds with ErrSaturated otherwise; either way the
		// entry is discarded as transient so waiting followers re-issue
		// under their own admission attempts.
		endAdm := rt.Phase("admission wait")
		release, aerr := s.acquireSearchSlot(ctx)
		endAdm()
		if aerr != nil {
			e.transient = true
			s.cache.discard(key, e)
			close(e.done)
			if errors.Is(aerr, ErrSaturated) {
				if st, ok := s.stale.get(key); ok {
					s.degradedAnswers.Inc()
					sc := st.sc
					return &ScheduleResult{Key: key, Cached: true, Degraded: true, Scenario: &sc, MCM: st.pkg, Result: st.res}, nil
				}
				s.saturatedRejects.Inc()
			}
			return nil, aerr
		}
		if fp := s.failPoints; fp != nil && fp.BeforeSearch != nil {
			e.err = fp.BeforeSearch(ctx, key)
		}
		if e.err == nil {
			endSearch := rt.Phase("search")
			e.sc, e.pkg, e.err = s.fill(ctx, e, req)
			endSearch()
		}
		release()
		if e.err == nil && e.res != nil {
			// Remember every answer — partials included — as degraded-
			// serving material; unlike the LRU cache this survives
			// eviction, it is only consulted when saturated.
			s.stale.put(key, staleEntry{sc: e.sc, pkg: e.pkg, res: e.res})
		}
		partial := e.err == nil && e.res != nil && e.res.Partial
		if e.err != nil || partial {
			// Neither failed nor truncated searches are cached: a failed
			// key may succeed later (e.g. a transiently invalid custom
			// description) and a partial result is an artifact of this
			// caller's deadline, not the problem's answer.
			e.transient = partial || isCancellation(e.err)
			s.cache.discard(key, e)
		} else {
			s.cache.complete(key, e)
		}
		close(e.done)
		if e.err != nil {
			return nil, e.err
		}
		return &ScheduleResult{Key: key, Scenario: &e.sc, MCM: e.pkg, Result: e.res}, nil
	}
}

// searchContext derives the context a request resolves under: the
// caller's ctx bounded by the request's TimeoutMS (or the service
// default when the request carries none). It governs both an own
// search and any wait on another caller's in-flight one.
func (s *Service) searchContext(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.requestTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// isCancellation reports whether err stems from context cancellation or
// deadline expiry — the error class followers must not inherit.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fill runs the cache-miss path: materialize inputs, search.
func (s *Service) fill(ctx context.Context, e *entry, req Request) (workload.Scenario, *mcm.MCM, error) {
	sc, pkg, obj, err := req.build()
	if err != nil {
		return sc, pkg, err
	}
	s.scheduleCalls.Inc()
	creq := core.NewRequest(&sc, pkg, obj)
	if rt := obs.TraceFrom(ctx); rt != nil {
		// Window-eval visibility through the existing progress hook:
		// each candidate completion becomes one lap span. Chained so a
		// scheduler-level Progress callback keeps firing; like any
		// progress observer this cannot perturb the search result.
		creq.Progress = core.ChainProgress(s.opts.Progress, func(ev core.ProgressEvent) {
			rt.Lap(fmt.Sprintf("cand %d/%d (%d evals)", ev.CandidatesDone, ev.CandidatesTotal, ev.WindowEvals))
		})
	}
	res, err := core.New(s.db, s.opts).Schedule(ctx, creq)
	if err != nil {
		return sc, pkg, err
	}
	e.res = res
	return sc, pkg, nil
}

// SimClass is one request class of a simulation: a scheduling request
// plus its arrival process (Poisson rate or explicit trace).
type SimClass struct {
	Request
	// Name labels the class in the report (default: the cache key).
	Name string `json:"name,omitempty"`
	// RatePerSec is the Poisson arrival rate; ArrivalTimes is the
	// trace-driven alternative (exactly one must be set).
	RatePerSec   float64   `json:"rate_per_sec,omitempty"`
	ArrivalTimes []float64 `json:"arrival_times,omitempty"`
	// Seed drives the class's Poisson stream (default: class index + 1).
	Seed int64 `json:"seed,omitempty"`
}

// SimRequest drives one simulation over scheduled classes.
type SimRequest struct {
	Classes []SimClass `json:"classes"`
	// Packages is the number of identical package replicas sharing the
	// queue (0 = 1).
	Packages int `json:"packages,omitempty"`
	// Policy picks the next queued request: "fifo" (default), "edf" or
	// "switch-aware" (see online.PolicyByName).
	Policy string `json:"policy,omitempty"`
	// HorizonSec / MaxRequestsPerClass bound the simulated load (at
	// least one must be positive; defaults: 100 requests per class).
	// The arrivals they allow, summed over classes, must stay within
	// MaxSimArrivals.
	HorizonSec          float64 `json:"horizon_sec,omitempty"`
	MaxRequestsPerClass int     `json:"max_requests_per_class,omitempty"`
	// SlackFactor derives deadlines for models without frame rates
	// (default 3: a request may queue two service times before missing).
	SlackFactor float64 `json:"slack_factor,omitempty"`
	// Admission control (all optional; see online.Admission):
	// MaxQueueDepth hard-bounds the waiting queue, High/LowWatermark
	// drive backpressure hysteresis, Shedder picks the shedding policy
	// ("drop-tail" or "deadline-aware"; default drop-tail) and
	// ShedMarginSec is the deadline-aware headroom. Leaving every field
	// zero runs without admission control.
	MaxQueueDepth int     `json:"max_queue_depth,omitempty"`
	HighWatermark int     `json:"high_watermark,omitempty"`
	LowWatermark  int     `json:"low_watermark,omitempty"`
	Shedder       string  `json:"shedder,omitempty"`
	ShedMarginSec float64 `json:"shed_margin_sec,omitempty"`
	// CollectTiming attaches wall-clock per-phase simulator timings to
	// the report (online.PhaseTimings) — arrival generation, event
	// loop, aggregation. Informational: timings vary run to run while
	// every other report field stays bit-identical.
	CollectTiming bool `json:"collect_timing,omitempty"`
}

// validate rejects out-of-range class, package and arrival counts at
// the wire boundary, before any search runs.
func (r SimRequest) validate() error {
	switch {
	case len(r.Classes) == 0:
		return fmt.Errorf("serve: simulation needs at least one class")
	case len(r.Classes) > MaxSimClasses:
		return fmt.Errorf("serve: %d simulation classes exceed the %d limit", len(r.Classes), MaxSimClasses)
	case r.Packages < 0:
		return fmt.Errorf("serve: negative package count %d", r.Packages)
	case r.Packages > MaxSimPackages:
		return fmt.Errorf("serve: %d packages exceed the %d limit", r.Packages, MaxSimPackages)
	}
	if n := r.arrivalBound(); n > MaxSimArrivals {
		return fmt.Errorf("serve: up to %.4g simulated arrivals exceed the %d limit", n, MaxSimArrivals)
	}
	return nil
}

// requestsPerClass returns the effective max_requests_per_class: the
// default when the request bounds its load by neither field.
func (r SimRequest) requestsPerClass() int {
	if r.HorizonSec <= 0 && r.MaxRequestsPerClass <= 0 {
		return defaultSimRequestsPerClass
	}
	return r.MaxRequestsPerClass
}

// arrivalBound returns the number of arrivals the request may ask the
// simulator to generate, summed over classes: a trace class's length,
// or for a Poisson class ⌈rate × horizon⌉ capped by
// max_requests_per_class (whichever of the two is set). It is a
// float64, so hostile rates and horizons cannot overflow it.
func (r SimRequest) arrivalBound() float64 {
	perClass := r.requestsPerClass()
	var total float64
	for _, c := range r.Classes {
		n := float64(len(c.ArrivalTimes))
		if n == 0 && c.RatePerSec > 0 {
			n = math.Inf(1)
			if r.HorizonSec > 0 {
				n = math.Ceil(c.RatePerSec * r.HorizonSec)
			}
			if perClass > 0 {
				n = min(n, float64(perClass))
			}
		}
		total += n
	}
	return total
}

// admission resolves the request's admission-control fields, validating
// at the wire boundary so a bad configuration fails before any search
// work. nil means no admission control was requested.
func (r SimRequest) admission() (*online.Admission, error) {
	if r.MaxQueueDepth == 0 && r.HighWatermark == 0 && r.LowWatermark == 0 &&
		r.Shedder == "" && r.ShedMarginSec == 0 {
		return nil, nil
	}
	if r.ShedMarginSec < 0 {
		return nil, fmt.Errorf("serve: negative shed_margin_sec %v", r.ShedMarginSec)
	}
	sh, err := online.ShedderByName(r.Shedder)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if da, ok := sh.(online.DeadlineAware); ok {
		da.MarginSec = r.ShedMarginSec
		sh = da
	} else if r.ShedMarginSec > 0 {
		return nil, fmt.Errorf("serve: shed_margin_sec applies to the deadline-aware shedder, not %q", sh.Name())
	}
	adm := &online.Admission{
		MaxQueueDepth: r.MaxQueueDepth,
		HighWatermark: r.HighWatermark,
		LowWatermark:  r.LowWatermark,
		Shedder:       sh,
	}
	if err := adm.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return adm, nil
}

// resolveArrivals materializes each class's arrival process. It is the
// wire boundary for simulation load descriptions: every malformed class
// (both rate and trace set, neither set, a non-ascending or non-finite
// trace) is rejected here, before any search work runs.
func resolveArrivals(classes []SimClass) ([]online.Arrivals, error) {
	arrivals := make([]online.Arrivals, len(classes))
	for i, sc := range classes {
		switch {
		case len(sc.ArrivalTimes) > 0 && sc.RatePerSec > 0:
			return nil, fmt.Errorf("serve: class %d sets both rate_per_sec and arrival_times", i)
		case len(sc.ArrivalTimes) > 0:
			tr, err := online.NewTrace(sc.ArrivalTimes)
			if err != nil {
				return nil, fmt.Errorf("serve: class %d: %w", i, err)
			}
			arrivals[i] = tr
		case sc.RatePerSec > 0:
			seed := sc.Seed
			if seed == 0 {
				seed = int64(i) + 1
			}
			arrivals[i] = online.Poisson{RatePerSec: sc.RatePerSec, Seed: seed}
		default:
			return nil, fmt.Errorf("serve: class %d needs rate_per_sec or arrival_times", i)
		}
	}
	return arrivals, nil
}

// Simulate schedules every class (through the cache) and runs the
// discrete-event simulator on the results. ctx bounds both phases:
// class scheduling inherits it per class, and the event loop polls it,
// so an abandoned simulation request stops burning the daemon's CPU.
func (s *Service) Simulate(ctx context.Context, req SimRequest) (*online.Report, error) {
	if err := s.checkAdmission(); err != nil {
		return nil, err
	}
	rt := obs.TraceFrom(ctx)
	endResolve := rt.Phase("resolve")
	if err := req.validate(); err != nil {
		endResolve()
		return nil, err
	}
	req.MaxRequestsPerClass = req.requestsPerClass()
	// Resolve the policy name and the admission block before scheduling
	// any class, so a typo fails fast instead of after seconds of
	// search work.
	policy, err := online.PolicyByName(req.Policy)
	if err != nil {
		endResolve()
		return nil, fmt.Errorf("serve: %w", err)
	}
	adm, err := req.admission()
	if err != nil {
		endResolve()
		return nil, err
	}
	slack := req.SlackFactor
	if slack == 0 {
		slack = 3
	}

	// Resolve every class's arrival process before scheduling any: a
	// malformed class must not cost seconds of search work (or populate
	// the schedule cache) before its rejection.
	arrivals, err := resolveArrivals(req.Classes)
	if err != nil {
		endResolve()
		return nil, err
	}
	endResolve()

	endSched := rt.Phase("schedule classes")
	srs, err := s.scheduleClasses(ctx, req.Classes)
	if err != nil {
		endSched()
		return nil, err
	}
	classes := make([]online.Class, len(req.Classes))
	for i, sc := range req.Classes {
		name := sc.Name
		if name == "" {
			name = srs[i].Key
		}
		comp := eval.Compile(s.db, srs[i].MCM, srs[i].Scenario, s.opts.Eval)
		cl, err := online.NewClass(name, comp, srs[i].Result.Schedule, arrivals[i], slack)
		if err != nil {
			endSched()
			return nil, fmt.Errorf("serve: class %d: %w", i, err)
		}
		classes[i] = cl
	}
	endSched()
	// Count only requests that reach the simulator: rejected ones —
	// malformed classes, unknown policies, failed searches — count
	// nowhere.
	s.simulations.Inc()
	endSim := rt.Phase("simulate")
	rep, err := online.Simulate(ctx, online.Config{
		Classes:             classes,
		Packages:            req.Packages,
		Policy:              policy,
		HorizonSec:          req.HorizonSec,
		MaxRequestsPerClass: req.MaxRequestsPerClass,
		Admission:           adm,
		CollectTiming:       req.CollectTiming,
	})
	endSim()
	return rep, err
}

// scheduleClasses resolves every class's scheduling request
// concurrently (bounded at GOMAXPROCS — searches are CPU-bound), so a
// k-class simulation overlaps its cold searches instead of paying them
// back-to-back; identical classes still collapse into one search via
// the per-shard singleflight. Searches are independent and
// deterministic, so the resolved schedules are bit-identical to
// scheduling the classes one at a time (asserted by
// TestSimulateConcurrentMatchesSequential). The first failure cancels
// the remaining classes' contexts.
func (s *Service) scheduleClasses(ctx context.Context, classes []SimClass) ([]*ScheduleResult, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srs := make([]*ScheduleResult, len(classes))
	errs := make([]error, len(classes))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(classes) {
		workers = len(classes)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range classes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			srs[i], errs[i] = s.Schedule(cctx, classes[i].Request)
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	// Report the lowest-indexed real failure: sibling classes cancelled
	// *because* of it would otherwise mask it with a context error (but
	// when every class reports cancellation — the caller's own ctx died
	// — the first of those is the answer).
	var firstCancel error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !isCancellation(err) {
			return nil, fmt.Errorf("serve: class %d: %w", i, err)
		}
		if firstCancel == nil {
			firstCancel = fmt.Errorf("serve: class %d: %w", i, err)
		}
	}
	if firstCancel != nil {
		return nil, firstCancel
	}
	return srs, nil
}

// Stats is a point-in-time service counter snapshot. Its totals read
// the same obs counters /metrics exposes as scar_*_total.
type Stats struct {
	// Requests counts Schedule calls; ScheduleCalls the underlying
	// searches actually run; CacheHits the requests served without one.
	Requests      int64 `json:"requests"`
	ScheduleCalls int64 `json:"schedule_calls"`
	CacheHits     int64 `json:"cache_hits"`
	// Simulations counts Simulate calls. CachedSchedules counts
	// resident *completed* schedule-cache entries; searches still in
	// flight are reported separately as InflightSearches (they were
	// previously folded into cached_schedules, overstating the cache
	// under load).
	Simulations      int64 `json:"simulations"`
	CachedSchedules  int   `json:"cached_schedules"`
	InflightSearches int   `json:"inflight_searches"`
	// Shards is the cache shard fan-out.
	Shards int `json:"shards"`
	// CostEntries / CostHits / CostMisses snapshot the shared cost
	// database (misses = cost-model computations performed).
	CostEntries int   `json:"cost_entries"`
	CostHits    int64 `json:"cost_hits"`
	CostMisses  int64 `json:"cost_misses"`
	// Shedding state. SearchSlots is the concurrent-search limit (0 =
	// unlimited) and SearchSlotsInUse the slots currently held;
	// SaturatedRejects counts requests shed with ErrSaturated,
	// DegradedAnswers the saturated requests answered from the stale
	// store instead, DrainRejects the ones rejected by ErrDraining.
	// StaleSchedules sizes the degraded-serving store and Draining
	// reports the shutdown-drain state.
	SearchSlots      int   `json:"search_slots"`
	SearchSlotsInUse int   `json:"search_slots_in_use"`
	SaturatedRejects int64 `json:"saturated_rejects"`
	DegradedAnswers  int64 `json:"degraded_answers"`
	DrainRejects     int64 `json:"drain_rejects"`
	StaleSchedules   int   `json:"stale_schedules"`
	Draining         bool  `json:"draining"`
	// UptimeSec is seconds since service construction.
	UptimeSec float64 `json:"uptime_sec"`
	// Endpoints is the per-endpoint HTTP latency view (requests plus
	// interpolated p50/p95/p99 in milliseconds), merged across status
	// classes; endpoints that served nothing are omitted. Empty when the
	// service answers only API calls.
	Endpoints []EndpointStats `json:"endpoints,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	completed, inflight := s.cache.sizes()
	hits, misses := s.db.Stats()
	st := Stats{
		Requests:         s.requests.Value(),
		ScheduleCalls:    s.scheduleCalls.Value(),
		CacheHits:        s.cacheHits.Value(),
		Simulations:      s.simulations.Value(),
		CachedSchedules:  completed,
		InflightSearches: inflight,
		Shards:           len(s.cache.shards),
		CostEntries:      s.db.Size(),
		CostHits:         hits,
		CostMisses:       misses,
		SaturatedRejects: s.saturatedRejects.Value(),
		DegradedAnswers:  s.degradedAnswers.Value(),
		DrainRejects:     s.drainRejects.Value(),
		StaleSchedules:   s.stale.size(),
		Draining:         s.draining.Load(),
		UptimeSec:        time.Since(s.started).Seconds(),
		Endpoints:        s.endpointStats(),
	}
	if s.searchSem != nil {
		st.SearchSlots = cap(s.searchSem)
		st.SearchSlotsInUse = len(s.searchSem)
	}
	return st
}
