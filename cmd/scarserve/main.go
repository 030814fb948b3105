// Command scarserve is the SCAR online scheduling daemon: an HTTP service
// exposing the scheduler and the discrete-event serving simulator as
// JSON endpoints over one shared warm cost database. Identical concurrent
// /schedule requests are singleflight-deduplicated into one search.
//
// Usage:
//
//	scarserve [-addr :8080] [-fast] [-seed 1] [-workers 0] [-costdb scar.costdb]
//	          [-shards 0] [-max-cached-schedules 0]
//	          [-request-timeout 5m] [-shutdown-timeout 30s]
//	          [-max-concurrent-searches 0] [-admission-wait 250ms]
//	          [-metrics] [-pprof addr] [-log-level info] [-trace-buffer 256]
//
// Endpoints:
//
//	POST /schedule  {"scenario": 6, "pattern": "het-sides", "objective": "edp"}
//	POST /simulate  {"classes": [{"scenario": 6, "rate_per_sec": 2}], "horizon_sec": 60}
//	GET  /stats
//	GET  /healthz
//	GET  /metrics   (-metrics only: Prometheus text exposition)
//	GET  /trace     (-metrics only: Chrome trace JSON of recent requests)
//
// Observability: every response carries X-Request-ID and lands in
// per-endpoint latency histograms (surfaced as p50/p95/p99 in /stats and
// as histograms on /metrics). -metrics opts into the /metrics and /trace
// endpoints; -pprof serves net/http/pprof on a separate listener so
// profiling is never exposed on the service address; -log-level selects
// the structured-log threshold (debug logs every request); -trace-buffer
// sizes the per-request span ring (0 disables tracing).
//
// Every request runs under a context derived from its HTTP connection:
// client disconnects cancel the search, -request-timeout bounds searches
// that carry no explicit timeout_ms, and the listener carries hardened
// read/header/idle timeouts so a slowloris client cannot pin the daemon.
//
// -max-concurrent-searches caps leader searches running at once; a
// request that cannot get a slot within -admission-wait is answered
// 429 + Retry-After (or a stale schedule marked degraded when one is
// remembered) instead of queueing unboundedly.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it first enters
// the drain state (new work answers 503 and /healthz flips to
// "draining" so load balancers stop routing here), then in-flight
// requests complete (bounded by -shutdown-timeout; on overrun their
// contexts are cancelled so searches abort instead of being killed
// mid-write) and,
// when -costdb is set, the warmed cost database is saved so the next
// start skips cost-model warmup. See DESIGN.md for where the service
// sits in the system.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/obs"
	"example.com/scar/internal/serve"
)

func main() { os.Exit(realMain()) }

// writeTimeout derives the server write timeout from the request
// timeout: enough headroom that a search running right up to its
// deadline still gets its response flushed. With no request deadline
// (-request-timeout 0) the write timeout is disabled too — searches are
// deliberately unbounded then, and a connection deadline would cut a
// legitimate long search off mid-response.
func writeTimeout(reqTimeout time.Duration) time.Duration {
	if reqTimeout <= 0 {
		return 0
	}
	return reqTimeout + 30*time.Second
}

// validateFlags rejects nonsense flag values at startup with a clear
// error instead of letting them reach the serve layer as silent
// defaults (a negative -request-timeout previously disabled the
// deadline entirely, which is never what the operator meant).
func validateFlags(shards, maxCached int, reqTimeout, shutTimeout time.Duration, maxSearches int, admitWait time.Duration, traceBuffer int) error {
	switch {
	case shards < 0:
		return fmt.Errorf("-shards must be >= 0, got %d", shards)
	case maxCached < 0:
		return fmt.Errorf("-max-cached-schedules must be >= 0, got %d", maxCached)
	case reqTimeout < 0:
		return fmt.Errorf("-request-timeout must be >= 0, got %v (use 0 for no deadline)", reqTimeout)
	case shutTimeout < 0:
		return fmt.Errorf("-shutdown-timeout must be >= 0, got %v", shutTimeout)
	case maxSearches < 0:
		return fmt.Errorf("-max-concurrent-searches must be >= 0, got %d (use 0 for unlimited)", maxSearches)
	case admitWait < 0:
		return fmt.Errorf("-admission-wait must be >= 0, got %v (use 0 for the default)", admitWait)
	case admitWait > 0 && maxSearches == 0:
		return fmt.Errorf("-admission-wait %v has no effect without -max-concurrent-searches", admitWait)
	case traceBuffer < 0:
		return fmt.Errorf("-trace-buffer must be >= 0, got %d (use 0 to disable tracing)", traceBuffer)
	}
	return nil
}

// pprofHandler builds an explicit pprof mux (never the default one, so
// the profiling surface is exactly these routes on its own listener).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func realMain() int {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		fast        = flag.Bool("fast", false, "use reduced search budgets")
		seed        = flag.Int64("seed", 1, "search seed")
		workers     = flag.Int("workers", 0, "per-search worker bound (0 = all cores)")
		costdbPath  = flag.String("costdb", "", "cost-database snapshot: loaded at start if present, saved on shutdown")
		shards      = flag.Int("shards", 0, "schedule-cache shard count, rounded up to a power of two (0 = derived from GOMAXPROCS)")
		maxCached   = flag.Int("max-cached-schedules", 0, "bound on resident completed schedules across all shards (0 = default)")
		reqTimeout  = flag.Duration("request-timeout", 5*time.Minute, "default search deadline for requests without timeout_ms (0 = none)")
		shutTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown deadline; overrunning requests are cancelled, not killed")
		maxSearches = flag.Int("max-concurrent-searches", 0, "cap on leader searches running at once; extra requests shed with 429 or answer degraded (0 = unlimited)")
		admitWait   = flag.Duration("admission-wait", 0, "how long a request may wait for a search slot before shedding (0 = serve default)")
		metrics     = flag.Bool("metrics", false, "expose GET /metrics (Prometheus text) and GET /trace (Chrome trace JSON) on the service address")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off), e.g. localhost:6060")
		logLevel    = flag.String("log-level", "info", "structured-log threshold: debug, info, warn or error (debug logs every request)")
		traceBuffer = flag.Int("trace-buffer", obs.DefaultTraceBuffer, "completed request traces retained for GET /trace (0 = disable tracing)")
	)
	flag.Parse()

	if err := validateFlags(*shards, *maxCached, *reqTimeout, *shutTimeout, *maxSearches, *admitWait, *traceBuffer); err != nil {
		fmt.Fprintf(os.Stderr, "scarserve: %v\n", err)
		return 2
	}
	log, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scarserve: -log-level %v\n", err)
		return 2
	}
	tb := *traceBuffer
	if tb == 0 {
		tb = -1 // obs convention: negative disables, zero means default
	}
	o := obs.New(obs.Config{Log: log, TraceBuffer: tb})

	opts := core.DefaultOptions()
	if *fast {
		opts = core.FastOptions()
	}
	opts.Seed = *seed
	opts.Workers = *workers

	db := costdb.New(maestro.DefaultParams())
	if *costdbPath != "" {
		loaded, err := db.LoadFile(*costdbPath)
		switch {
		case errors.Is(err, costdb.ErrStaleSnapshot):
			log.Warn("cost database snapshot is stale; starting cold and overwriting it on shutdown", "path", *costdbPath, "err", err)
		case err != nil:
			log.Error("cost database load failed", "path", *costdbPath, "err", err)
			return 1
		case loaded:
			log.Info("cost database loaded", "path", *costdbPath, "entries", db.Size())
		}
	}
	svc := serve.NewWithConfig(db, opts, serve.Config{
		Shards:                *shards,
		MaxCachedSchedules:    *maxCached,
		MaxConcurrentSearches: *maxSearches,
		AdmissionWait:         *admitWait,
		Obs:                   o,
		ExposeMetrics:         *metrics,
	})
	svc.SetRequestTimeout(*reqTimeout)

	// The pprof listener is separate from the service address on
	// purpose: profiling endpoints expose heap contents and CPU time, so
	// they bind where the operator says (typically localhost) and never
	// ride the public handler.
	var pprofServer *http.Server
	if *pprofAddr != "" {
		pprofServer = &http.Server{Addr: *pprofAddr, Handler: pprofHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		defer pprofServer.Close()
	}

	// baseCtx parents every request context: cancelling it is the lever
	// that aborts in-flight searches when graceful shutdown overruns.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	server := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Slowloris hardening: a client must finish its headers and
		// body promptly and cannot hold an idle connection forever. The
		// write timeout stays above the request timeout so a legitimate
		// long search is never cut off mid-response.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      writeTimeout(*reqTimeout),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "fast", *fast, "seed", *seed,
			"workers", *workers, "shards", svc.Stats().Shards,
			"request_timeout", *reqTimeout, "metrics", *metrics)
		errc <- server.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// ListenAndServe never returns nil; anything here is a startup
		// or accept failure.
		log.Error("server failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	// Drain before Shutdown: new work answers 503 (and /healthz flips
	// to "draining") for the whole grace period, while requests already
	// in flight — which Shutdown waits for — run to completion.
	svc.BeginDrain()
	log.Info("draining", "shutdown_timeout", *shutTimeout)
	exit := 0
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutTimeout)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		// The grace period expired with requests still in flight:
		// cancel their contexts — the scheduler returns anytime results
		// promptly — then close whatever remains. The exit code stays
		// nonzero so supervisors see the non-graceful shutdown, but the
		// cost database below is still saved.
		log.Warn("shutdown grace expired; cancelling in-flight requests", "err", err)
		exit = 1
		baseCancel()
		if cerr := server.Close(); cerr != nil {
			log.Error("close failed", "err", cerr)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("server failed", "err", err)
		return 1
	}

	if *costdbPath != "" {
		if err := db.SaveFile(*costdbPath); err != nil {
			log.Error("cost database save failed", "path", *costdbPath, "err", err)
			return 1
		}
		log.Info("cost database saved", "path", *costdbPath, "entries", db.Size())
	}
	st := svc.Stats()
	log.Info("served", "requests", st.Requests, "searches", st.ScheduleCalls,
		"cache_hits", st.CacheHits, "simulations", st.Simulations)
	return exit
}
