package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
)

// tinyWorkload is a two-model custom description small enough that a
// full (fast-budget) search runs in milliseconds; model m0 carries a
// frame rate so simulations have a real-time deadline to score.
const tinyWorkload = `{
  "name": "tiny",
  "models": [
    {"name": "m0", "batch": 2, "fps": 2, "layers": [
      {"name": "c0", "type": "conv", "c": 16, "k": 16, "y": 28, "x": 28, "r": 3, "s": 3, "stride": 1},
      {"name": "c1", "type": "conv", "c": 16, "k": 16, "y": 28, "x": 28, "r": 3, "s": 3, "stride": 1}
    ]},
    {"name": "m1", "batch": 1, "layers": [
      {"name": "g0", "type": "gemm", "c": 256, "k": 256, "y": 64}
    ]}
  ]
}`

func fastService() *Service {
	return fastServiceWith(Config{})
}

// fastServiceWith builds a reduced-budget service with an explicit
// cache configuration (tests exercise both cache implementations and
// tiny eviction bounds through it).
func fastServiceWith(cfg Config) *Service {
	opts := core.FastOptions()
	opts.Workers = 1
	return NewWithConfig(costdb.New(maestro.DefaultParams()), opts, cfg)
}

func tinyRequest() Request {
	return Request{WorkloadJSON: []byte(tinyWorkload), Pattern: "het-sides", Profile: "edge"}
}

// TestSingleflightDedup is the PR's concurrency contract: N goroutines
// requesting the same (scenario, MCM, objective) trigger exactly one
// underlying search.
func TestSingleflightDedup(t *testing.T) {
	s := fastService()
	const n = 24
	results := make([]*ScheduleResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Schedule(context.Background(), tinyRequest())
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	st := s.Stats()
	if st.ScheduleCalls != 1 {
		t.Fatalf("underlying Schedule calls = %d, want exactly 1", st.ScheduleCalls)
	}
	if st.Requests != n {
		t.Errorf("requests = %d, want %d", st.Requests, n)
	}
	if st.CacheHits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, n-1)
	}
	if st.CachedSchedules != 1 {
		t.Errorf("cached schedules = %d, want 1", st.CachedSchedules)
	}
	// Every caller shares the one result object.
	for i := 1; i < n; i++ {
		if results[i].Result != results[0].Result {
			t.Fatalf("request %d got a different result object", i)
		}
		if results[i].Key != results[0].Key {
			t.Fatalf("request %d got key %q, want %q", i, results[i].Key, results[0].Key)
		}
	}
	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	if cached != n-1 {
		t.Errorf("cached results = %d, want %d", cached, n-1)
	}
}

func TestDistinctKeysSearchSeparately(t *testing.T) {
	s := fastService()
	a, err := s.Schedule(context.Background(), tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest()
	req.Objective = "latency"
	b, err := s.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == b.Key {
		t.Fatal("different objectives share a cache key")
	}
	if st := s.Stats(); st.ScheduleCalls != 2 {
		t.Errorf("schedule calls = %d, want 2", st.ScheduleCalls)
	}
	// Latency search must not be slower than the EDP search's latency.
	if b.Result.Metrics.LatencySec > a.Result.Metrics.LatencySec*1.0001 {
		t.Errorf("latency objective latency %v > edp objective latency %v",
			b.Result.Metrics.LatencySec, a.Result.Metrics.LatencySec)
	}
}

func TestBadRequestsNotCached(t *testing.T) {
	s := fastService()
	bad := Request{Scenario: 99}
	for i := 0; i < 2; i++ {
		if _, err := s.Schedule(context.Background(), bad); err == nil {
			t.Fatal("scenario 99 accepted")
		}
	}
	st := s.Stats()
	if st.CachedSchedules != 0 {
		t.Errorf("failed request left %d cache entries", st.CachedSchedules)
	}
	if st.ScheduleCalls != 0 {
		t.Errorf("failed request ran %d searches", st.ScheduleCalls)
	}
	if _, err := s.Schedule(context.Background(), Request{Scenario: 1, Profile: "tpu"}); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := s.Schedule(context.Background(), Request{Scenario: 1, Objective: "carbon"}); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := s.Schedule(context.Background(), Request{WorkloadJSON: []byte(`{"models": []}`)}); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestSimulateDeterministicAndCached(t *testing.T) {
	s := fastService()
	req := SimRequest{
		Classes: []SimClass{
			{Request: tinyRequest(), Name: "tiny", RatePerSec: 5, Seed: 3},
		},
		MaxRequestsPerClass: 50,
		HorizonSec:          1e9,
	}
	r1, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Requests != 50 || r2.Requests != 50 {
		t.Fatalf("requests = %d / %d, want 50", r1.Requests, r2.Requests)
	}
	if r1.SLAAttainment != r2.SLAAttainment || r1.P99LatencySec != r2.P99LatencySec ||
		r1.MakespanSec != r2.MakespanSec || r1.EnergyJ != r2.EnergyJ {
		t.Fatal("two simulations of the same request differ")
	}
	if st := s.Stats(); st.ScheduleCalls != 1 {
		t.Errorf("schedule calls = %d, want 1 (second simulation reuses the cached schedule)", st.ScheduleCalls)
	}
	if st := s.Stats(); st.Simulations != 2 {
		t.Errorf("simulations = %d, want 2", st.Simulations)
	}
	if r1.PerClass[0].Name != "tiny" {
		t.Errorf("class name = %q", r1.PerClass[0].Name)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := fastService()
	if _, err := s.Simulate(context.Background(), SimRequest{}); err == nil {
		t.Error("empty simulation accepted")
	}
	if _, err := s.Simulate(context.Background(), SimRequest{Classes: []SimClass{{Request: tinyRequest()}}}); err == nil {
		t.Error("class without arrivals accepted")
	}
	both := SimClass{Request: tinyRequest(), RatePerSec: 1, ArrivalTimes: []float64{1}}
	if _, err := s.Simulate(context.Background(), SimRequest{Classes: []SimClass{both}}); err == nil {
		t.Error("class with both rate and trace accepted")
	}
	ok := SimClass{Request: tinyRequest(), RatePerSec: 1}
	// An unknown policy or a negative replica count fails before any
	// class is scheduled — the schedule cache must stay untouched.
	if _, err := s.Simulate(context.Background(), SimRequest{Classes: []SimClass{ok}, Policy: "lifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := s.Simulate(context.Background(), SimRequest{Classes: []SimClass{ok}, Packages: -1}); err == nil {
		t.Error("negative package count accepted")
	}
	if st := s.Stats(); st.ScheduleCalls != 0 {
		t.Errorf("invalid simulations ran %d searches, want 0 (fail before scheduling)", st.ScheduleCalls)
	}
}

// TestSimulatePoliciesAndPackages: the wire fields reach the engine —
// the report echoes them, replicas split the load, and switch-aware
// reconfigures less than FIFO on a two-class mix.
func TestSimulatePoliciesAndPackages(t *testing.T) {
	s := fastService()
	// Strictly interleaved arrivals, nanoseconds apart: the whole load
	// is backlogged from the start regardless of the searched schedules'
	// service latencies, so dispatch policies actually have a queue to
	// choose from and FIFO switches classes on every dispatch.
	const perClass = 30
	ta := make([]float64, perClass)
	tb := make([]float64, perClass)
	for i := 0; i < perClass; i++ {
		ta[i] = float64(2*i) * 1e-9
		tb[i] = float64(2*i+1) * 1e-9
	}
	mk := func(packages int, policy string) SimRequest {
		return SimRequest{
			Classes: []SimClass{
				{Request: tinyRequest(), Name: "a", ArrivalTimes: ta},
				{Request: func() Request {
					r := tinyRequest()
					r.Objective = "latency" // distinct cache key -> a second class
					return r
				}(), Name: "b", ArrivalTimes: tb},
			},
			HorizonSec: 1e9,
			Packages:   packages,
			Policy:     policy,
		}
	}
	fifo1, err := s.Simulate(context.Background(), mk(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if fifo1.Packages != 1 || fifo1.Policy != "fifo" {
		t.Errorf("defaults: packages %d policy %q", fifo1.Packages, fifo1.Policy)
	}
	// Alternating backlog on one package: FIFO switches on every
	// dispatch, switch-aware batches.
	if fifo1.ScheduleSwitches != fifo1.Requests-1 {
		t.Errorf("1-package FIFO switched %d times on a strict alternation of %d requests",
			fifo1.ScheduleSwitches, fifo1.Requests)
	}
	sw1, err := s.Simulate(context.Background(), mk(1, "switch-aware"))
	if err != nil {
		t.Fatal(err)
	}
	if sw1.Policy != "switch-aware" || sw1.ScheduleSwitches >= fifo1.ScheduleSwitches {
		t.Errorf("switch-aware (%q) switched %d times, fifo %d — batching should reconfigure less",
			sw1.Policy, sw1.ScheduleSwitches, fifo1.ScheduleSwitches)
	}
	// Replicas: the wire field reaches the engine and splits the load.
	fifo2, err := s.Simulate(context.Background(), mk(2, "fifo"))
	if err != nil {
		t.Fatal(err)
	}
	if fifo2.Packages != 2 || len(fifo2.PerPackage) != 2 {
		t.Errorf("wire fields not honored: %d packages, %d per-package entries", fifo2.Packages, len(fifo2.PerPackage))
	}
	if fifo2.MakespanSec >= fifo1.MakespanSec {
		t.Errorf("2-package makespan %v not below 1-package %v", fifo2.MakespanSec, fifo1.MakespanSec)
	}
	edf2, err := s.Simulate(context.Background(), mk(2, "edf"))
	if err != nil {
		t.Fatal(err)
	}
	if edf2.Policy != "edf" || edf2.Requests != fifo2.Requests {
		t.Errorf("edf run: policy %q, %d requests (fifo served %d)", edf2.Policy, edf2.Requests, fifo2.Requests)
	}
}

func TestRequestKeyCoversInputs(t *testing.T) {
	base := tinyRequest().withDefaults()
	seen := map[string]string{}
	for _, r := range []Request{
		base,
		{Scenario: 6},
		{Scenario: 7},
		{Scenario: 6, Pattern: "simba-shi"},
		{Scenario: 6, Objective: "latency"},
		{Scenario: 6, Width: 4, Height: 4},
		{Scenario: 6, Profile: "datacenter"},
	} {
		r = r.withDefaults()
		k := r.key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision: %q between %+v and %s", k, r, prev)
		}
		seen[k] = fmt.Sprintf("%+v", r)
	}
	// Byte-identical custom JSON shares a key.
	if tinyRequest().withDefaults().key() != base.key() {
		t.Error("identical custom workloads got different keys")
	}
}

func TestCacheEvictionBound(t *testing.T) {
	// One shard so recency order is exact (multi-shard eviction is
	// approximate global LRU).
	s := fastServiceWith(Config{Shards: 1, MaxCachedSchedules: 2})
	reqs := []Request{}
	for _, obj := range []string{"edp", "latency", "energy"} {
		r := tinyRequest()
		r.Objective = obj
		reqs = append(reqs, r)
	}
	for _, r := range reqs {
		if _, err := s.Schedule(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CachedSchedules > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", st.CachedSchedules)
	}
	// The least recently used key (edp) was evicted: requesting it
	// searches again; the newest (energy) is still cached.
	before := s.Stats().ScheduleCalls
	res, err := s.Schedule(context.Background(), reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached || s.Stats().ScheduleCalls != before {
		t.Error("newest entry should still be cached")
	}
	res, err = s.Schedule(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || s.Stats().ScheduleCalls != before+1 {
		t.Error("evicted entry should have searched again")
	}
}

// TestLRUBeatsFIFO is the recency upgrade's contract: re-accessing an
// old entry protects it from eviction (the FIFO cache would evict it
// regardless of use).
func TestLRUBeatsFIFO(t *testing.T) {
	s := fastServiceWith(Config{Shards: 1, MaxCachedSchedules: 2})
	mk := func(obj string) Request {
		r := tinyRequest()
		r.Objective = obj
		return r
	}
	for _, obj := range []string{"edp", "latency"} {
		if _, err := s.Schedule(context.Background(), mk(obj)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch edp (now MRU), then insert a third key: latency — not edp —
	// must be the eviction victim.
	if res, err := s.Schedule(context.Background(), mk("edp")); err != nil || !res.Cached {
		t.Fatalf("touch edp: cached=%v err=%v", res != nil && res.Cached, err)
	}
	if _, err := s.Schedule(context.Background(), mk("energy")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().ScheduleCalls
	if res, err := s.Schedule(context.Background(), mk("edp")); err != nil || !res.Cached {
		t.Errorf("recently used entry was evicted: cached=%v err=%v", res != nil && res.Cached, err)
	}
	if res, err := s.Schedule(context.Background(), mk("latency")); err != nil {
		t.Fatal(err)
	} else if res.Cached || s.Stats().ScheduleCalls != before+1 {
		t.Error("least recently used entry should have been the eviction victim")
	}
}
