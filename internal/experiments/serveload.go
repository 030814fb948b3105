package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/serve"
)

// This file is the serve-layer load generator (`scarbench -exp serve`,
// not a paper artifact): it drives the in-process serve.Service at
// saturation with a configurable hit/miss mix and measures throughput
// and latency percentiles of the serving layer itself — the sharded
// cache, its per-shard singleflight and the service counters. Three
// mixes are measured:
//
//   - "hit":   every request is a resident cache key. Isolates lock and
//     counter contention.
//   - "mixed": mostly hits plus a stream of unique *failing* keys (the
//     churn a public daemon sees from malformed custom descriptions).
//     In-flight entries never count against the cache bound, so the
//     failing keys cannot evict the resident hit set: searches_run
//     stays 0. A cache that let them would force a full re-search on
//     the evicted key's next hit.
//   - "churn": failing keys only. Exercises the discard path (the
//     LRU's O(1) unlink).
//
// The search budgets are pinned to a reduced profile (serveLoadOpts):
// the generator measures the serving layer, and any re-search must cost
// milliseconds, not minutes. Its JSON output is the checked-in
// BENCH_serve.json snapshot format (`go run ./cmd/scarbench -exp serve
// -benchjson FILE`); throughput numbers are hardware-dependent, the
// structural fields (searches_run, error_ops) are not. With URL set the
// generator drives a live daemon over HTTP instead.

// ServeLoadConfig parameterizes the load generator. Zero values take
// the documented defaults.
type ServeLoadConfig struct {
	// Keys is the number of distinct cacheable requests pre-populated
	// before each measurement (each costs one reduced-budget search).
	// Default 128.
	Keys int
	// Goroutines is the client concurrency. Default 4x GOMAXPROCS.
	Goroutines int
	// Duration is the measured interval per mix. Default 2s.
	Duration time.Duration
	// HitFraction is the mixed workload's share of cache-hit requests
	// (the rest are unique failing keys). Default 0.95.
	HitFraction float64
	// MaxEntries bounds each service's schedule cache. Default Keys:
	// the cache runs exactly at its bound, the steady state of a
	// saturated public daemon.
	MaxEntries int
	// Shards configures the cache fan-out (0 = serve default).
	Shards int
	// MinGOMAXPROCS raises GOMAXPROCS for the measurement (restored
	// afterwards); the acceptance gate measures at >= 8. Default 8.
	MinGOMAXPROCS int
	// URL, when set, drives a live scarserve daemon over HTTP instead
	// of in-process services.
	URL string
}

func (c ServeLoadConfig) withDefaults() ServeLoadConfig {
	if c.Keys <= 0 {
		c.Keys = 128
	}
	if c.MinGOMAXPROCS <= 0 {
		c.MinGOMAXPROCS = 8
	}
	if c.Goroutines <= 0 {
		// Sized against the raised GOMAXPROCS, not the entry value: the
		// generator must oversubscribe the measured parallelism.
		c.Goroutines = 4 * max(runtime.GOMAXPROCS(0), c.MinGOMAXPROCS)
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.HitFraction <= 0 || c.HitFraction > 1 {
		c.HitFraction = 0.95
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = c.Keys
	}
	return c
}

// ServeLoadPoint is one measured mix operating point.
type ServeLoadPoint struct {
	// Mix is "hit", "mixed" or "churn"; HitFraction its hit share.
	Mix         string  `json:"mix"`
	HitFraction float64 `json:"hit_fraction"`
	// Ops counts completed requests; ErrorOps the subset that answered
	// an error (the failing-key stream — expected, not a failure).
	Ops      int64 `json:"ops"`
	ErrorOps int64 `json:"error_ops"`
	// SearchesRun counts underlying schedule searches during the
	// measured interval. Nonzero under "hit"/"mixed" means the resident
	// working set was evicted and re-searched; the cache reports 0.
	SearchesRun int64 `json:"searches_run"`
	// DurationSec is the measured wall interval; ThroughputRPS the
	// request rate over it.
	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency percentiles over sampled requests, microseconds.
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
}

// ServeLoadImpl is one measured service's curve across the mixes.
type ServeLoadImpl struct {
	// Impl is "sharded" (in process) or "http" (a live daemon).
	Impl   string           `json:"impl"`
	Shards int              `json:"shards"`
	Points []ServeLoadPoint `json:"points"`
}

// ServeLoadResult is the load-generator snapshot.
type ServeLoadResult struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Goroutines  int     `json:"goroutines"`
	Keys        int     `json:"keys"`
	MaxEntries  int     `json:"max_cached_schedules"`
	DurationSec float64 `json:"duration_sec_per_point"`
	// SetupMs is the total time spent pre-populating caches (real
	// searches at reduced budgets), across all points.
	SetupMs float64 `json:"setup_ms"`
	URL     string  `json:"url,omitempty"`
	// Impls carries the one measured curve.
	Impls []ServeLoadImpl `json:"impls"`
}

// serveLoadOpts pins the generator's search budgets to an intermediate
// profile between fast and default: the load generator measures the
// serving layer, not the search, so re-searches must cost milliseconds
// rather than the seconds-to-minutes of production budgets — but they
// must still be expensive enough (~10ms warm on the zoo workload) that
// losing a resident schedule shows above request-handling noise.
func (s *Suite) serveLoadOpts() core.Options {
	opts := core.FastOptions()
	opts.NSplits = 3
	opts.SegEnumLimit = 800
	opts.SegSamples = 80
	opts.MaxTrees = 40
	opts.MaxCombos = 18
	opts.WindowEvalBudget = 800
	opts.Workers = 1
	opts.Seed = s.Opts.Seed
	return opts
}

// serveLoadHitRequest is the i-th resident cacheable request: a real
// multi-model zoo inference workload whose name carries the key index, so every i
// is a distinct cache key over an identical search. The layers are
// shared across keys, so the cost database warms once and every
// subsequent search — including an erosion-forced re-search — costs
// search-machinery milliseconds, a floor far below the seconds-to-
// minutes of production budgets. A cache that loses resident keys pays
// that floor; one that keeps them pays nanoseconds.
func serveLoadHitRequest(i int) serve.Request {
	wl := fmt.Sprintf(`{"name": "serve-bench-%05d", "models": [{"zoo": "resnet50"}, {"zoo": "bert-large"}, {"zoo": "unet"}]}`, i)
	return serve.Request{WorkloadJSON: []byte(wl), Profile: "edge", Objective: "latency"}
}

// serveLoadFailRequest is a unique *failing* request: the workload
// parses (tiny) but the profile is unknown, so the request reaches the
// cache, claims a singleflight slot, fails at build and is discarded —
// the exact lifecycle of a malformed client description.
func serveLoadFailRequest(nonce int64) serve.Request {
	wl := fmt.Sprintf(`{"name": "serve-fail-%d", "models": [{"name": "m0", "layers": [{"name": "g0", "type": "gemm", "c": 8, "k": 8, "y": 8}]}]}`, nonce)
	return serve.Request{WorkloadJSON: []byte(wl), Profile: "bogus"}
}

// ServeLoad runs the serve-layer load generator.
func (s *Suite) ServeLoad(ctx context.Context, cfg ServeLoadConfig) (*ServeLoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.MinGOMAXPROCS > runtime.GOMAXPROCS(0) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(cfg.MinGOMAXPROCS)
	}
	res := &ServeLoadResult{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Goroutines:  cfg.Goroutines,
		Keys:        cfg.Keys,
		MaxEntries:  cfg.MaxEntries,
		DurationSec: cfg.Duration.Seconds(),
		URL:         cfg.URL,
	}
	hits := make([]serve.Request, cfg.Keys)
	for i := range hits {
		hits[i] = serveLoadHitRequest(i)
	}
	mixes := []struct {
		name string
		hit  float64
	}{
		{"hit", 1},
		{"mixed", cfg.HitFraction},
		{"churn", 0},
	}

	if cfg.URL != "" {
		impl := ServeLoadImpl{Impl: "http"}
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Goroutines,
			MaxIdleConnsPerHost: cfg.Goroutines,
		}}
		for _, mix := range mixes {
			setup := time.Now()
			if err := serveLoadPopulateHTTP(client, cfg.URL, hits); err != nil {
				return nil, fmt.Errorf("experiments: serve: populate %s: %w", cfg.URL, err)
			}
			res.SetupMs += float64(time.Since(setup).Microseconds()) / 1e3
			pt := serveLoadDrive(cfg, mix.name, mix.hit, hits, func(r serve.Request) error {
				return serveLoadPostHTTP(client, cfg.URL, r)
			})
			impl.Points = append(impl.Points, pt)
		}
		res.Impls = []ServeLoadImpl{impl}
		return res, nil
	}

	impl := ServeLoadImpl{Impl: "sharded"}
	for _, mix := range mixes {
		// Fresh service per point: a prior mix's churn must not leave an
		// eroded cache behind. The suite cost database is shared, so only
		// the first population pays cost-model warmup.
		svc := serve.NewWithConfig(s.DB, s.serveLoadOpts(), serve.Config{Shards: cfg.Shards, MaxCachedSchedules: cfg.MaxEntries})
		impl.Shards = svc.Stats().Shards
		setup := time.Now()
		for _, r := range hits {
			if _, err := svc.Schedule(ctx, r); err != nil {
				return nil, fmt.Errorf("experiments: serve: populate %s: %w", mix.name, err)
			}
		}
		res.SetupMs += float64(time.Since(setup).Microseconds()) / 1e3
		before := svc.Stats().ScheduleCalls
		pt := serveLoadDrive(cfg, mix.name, mix.hit, hits, func(r serve.Request) error {
			_, err := svc.Schedule(ctx, r)
			return err
		})
		pt.SearchesRun = svc.Stats().ScheduleCalls - before
		impl.Points = append(impl.Points, pt)
	}
	res.Impls = []ServeLoadImpl{impl}
	return res, nil
}

// serveLoadDrive saturates one operating point: Goroutines workers
// issue requests for Duration, each deterministically interleaving
// resident keys and unique failing keys at the mix's hit share.
// Latency is sampled every 8th request to bound timer overhead.
func serveLoadDrive(cfg ServeLoadConfig, mix string, hitFrac float64, hits []serve.Request, do func(serve.Request) error) ServeLoadPoint {
	var stop atomic.Bool
	var wg sync.WaitGroup
	ops := make([]int64, cfg.Goroutines)
	errOps := make([]int64, cfg.Goroutines)
	lats := make([][]float64, cfg.Goroutines)
	start := time.Now()
	timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	defer timer.Stop()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var n, errs int64
			lat := make([]float64, 0, 1<<16)
			// Offset the key walk per goroutine so workers spread
			// across shards instead of marching in lockstep.
			keyIdx := g * 7
			// Failing keys are spread evenly through the request
			// stream (Bresenham over a 1/1024 grain): at 95% hits,
			// roughly every 20th request fails, from the first ops on —
			// not a burst at the end of each 1024-request cycle.
			failPer1024 := 1024 - int64(hitFrac*1024)
			for !stop.Load() {
				var req serve.Request
				fail := (n+1)*failPer1024/1024 > n*failPer1024/1024
				if !fail {
					req = hits[keyIdx%len(hits)]
					keyIdx++
				} else {
					req = serveLoadFailRequest(int64(g)<<32 | n)
				}
				sample := n%8 == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				if err := do(req); err != nil {
					errs++
				}
				if sample {
					lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
				}
				n++
			}
			ops[g], errOps[g], lats[g] = n, errs, lat
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	pt := ServeLoadPoint{Mix: mix, HitFraction: hitFrac, DurationSec: elapsed}
	var all []float64
	for g := 0; g < cfg.Goroutines; g++ {
		pt.Ops += ops[g]
		pt.ErrorOps += errOps[g]
		all = append(all, lats[g]...)
	}
	if elapsed > 0 {
		pt.ThroughputRPS = float64(pt.Ops) / elapsed
	}
	sort.Float64s(all)
	pt.P50Us = percentileUs(all, 0.50)
	pt.P95Us = percentileUs(all, 0.95)
	pt.P99Us = percentileUs(all, 0.99)
	return pt
}

// percentileUs reads the q-quantile from a sorted sample (0 when empty).
func percentileUs(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// serveLoadPopulateHTTP warms a live daemon's cache with every hit key.
func serveLoadPopulateHTTP(client *http.Client, url string, hits []serve.Request) error {
	for _, r := range hits {
		if err := serveLoadPostHTTP(client, url, r); err != nil {
			return err
		}
	}
	return nil
}

// serveLoadPostHTTP issues one /schedule request against a live daemon.
// Non-2xx answers count as error ops (the failing-key stream answers
// 400 by design).
func serveLoadPostHTTP(client *http.Client, url string, r serve.Request) error {
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// Print renders the load-generator result as one table per measured
// service.
func (r *ServeLoadResult) Print(w io.Writer) {
	fprintf(w, "Serve-layer load generator: GOMAXPROCS %d (%d CPUs), %d goroutines, %d keys, cache bound %d, %.2gs/point\n",
		r.GOMAXPROCS, r.NumCPU, r.Goroutines, r.Keys, r.MaxEntries, r.DurationSec)
	if r.URL != "" {
		fprintf(w, "live daemon: %s\n", r.URL)
	}
	for _, impl := range r.Impls {
		fprintf(w, "\nimpl %s (%d shard(s))\n", impl.Impl, impl.Shards)
		fprintf(w, "%8s %6s %12s %12s %10s %10s %10s %10s %10s\n",
			"mix", "hit%", "ops", "req/s", "errors", "searches", "p50 µs", "p95 µs", "p99 µs")
		for _, p := range impl.Points {
			fprintf(w, "%8s %5.0f%% %12d %12.0f %10d %10d %10.2f %10.2f %10.2f\n",
				p.Mix, 100*p.HitFraction, p.Ops, p.ThroughputRPS, p.ErrorOps, p.SearchesRun,
				p.P50Us, p.P95Us, p.P99Us)
		}
	}
}

// WriteJSON writes the snapshot as indented JSON (the BENCH_serve.json
// format).
func (r *ServeLoadResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
