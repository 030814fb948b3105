package serve

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// --- lruList unit coverage -------------------------------------------------

func lruKeys(l *lruList) []string {
	var ks []string
	for e := l.root.next; e != &l.root; e = e.next {
		ks = append(ks, e.key)
	}
	return ks
}

func TestLRUListOps(t *testing.T) {
	var l lruList
	l.init()
	if l.len() != 0 || l.back() != nil {
		t.Fatal("fresh list not empty")
	}
	a, b, c := &entry{key: "a"}, &entry{key: "b"}, &entry{key: "c"}
	l.pushFront(a)
	l.pushFront(b)
	l.pushFront(c)
	if got := strings.Join(lruKeys(&l), ""); got != "cba" {
		t.Fatalf("order %q, want cba", got)
	}
	if l.back() != a {
		t.Fatalf("back = %q, want a", l.back().key)
	}
	l.moveToFront(a)
	if got := strings.Join(lruKeys(&l), ""); got != "acb" || l.back() != b {
		t.Fatalf("after moveToFront(a): %q back=%q", got, l.back().key)
	}
	l.moveToFront(a) // already front: no-op
	if got := strings.Join(lruKeys(&l), ""); got != "acb" {
		t.Fatalf("moveToFront(front) changed order to %q", got)
	}
	l.remove(c)
	if got := strings.Join(lruKeys(&l), ""); got != "ab" || l.len() != 2 {
		t.Fatalf("after remove(c): %q len=%d", got, l.len())
	}
	l.remove(a)
	l.remove(b)
	if l.len() != 0 || l.back() != nil {
		t.Fatal("list not empty after removing everything")
	}
}

// --- shard fabric ----------------------------------------------------------

func TestShardCountDerivation(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, defaultShardCount()}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		c := newShardedCache(tc.in, 0)
		if got := len(c.shards); got != tc.want {
			t.Errorf("shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	d := defaultShardCount()
	if d < 8 || d&(d-1) != 0 {
		t.Errorf("defaultShardCount() = %d, want a power of two >= 8", d)
	}
}

func TestShardDistribution(t *testing.T) {
	// Realistic cache keys must not collapse onto few shards.
	c := newShardedCache(8, 0)
	counts := make([]int, len(c.shards))
	const n = 4096
	for i := 0; i < n; i++ {
		counts[c.shardIndex(fmt.Sprintf("sc%d|het-sides:3x3:edge|edp|opts:%08x", i%10, i))]++
	}
	for i, got := range counts {
		if got < n/len(c.shards)/2 || got > n/len(c.shards)*2 {
			t.Errorf("shard %d holds %d of %d keys (want near %d)", i, got, n, n/len(c.shards))
		}
	}
}

// TestStatsDistinguishInflight is the cached-vs-in-flight accounting
// regression: while a search is running, it must be reported as an
// in-flight search, not as a cached schedule.
func TestStatsDistinguishInflight(t *testing.T) {
	svc, started, release := blockingService()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), tinyRequest())
		done <- err
	}()
	<-started
	st := svc.Stats()
	if st.CachedSchedules != 0 {
		t.Errorf("in-flight search reported as %d cached schedules", st.CachedSchedules)
	}
	if st.InflightSearches != 1 {
		t.Errorf("inflight searches = %d, want 1", st.InflightSearches)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.CachedSchedules != 1 || st.InflightSearches != 0 {
		t.Errorf("after completion: cached=%d inflight=%d, want 1/0", st.CachedSchedules, st.InflightSearches)
	}
	if st.Shards != defaultShardCount() {
		t.Errorf("stats shards = %d, want %d", st.Shards, defaultShardCount())
	}
}

// failingRequest builds a unique request that reaches the cache (claims
// a singleflight slot) but fails at build: the workload parses, the
// profile is unknown.
func failingRequest(nonce int) Request {
	wl := fmt.Sprintf(`{"name": "fail-%d", "models": [{"name": "m0", "layers": [{"name": "g0", "type": "gemm", "c": 8, "k": 8, "y": 8}]}]}`, nonce)
	return Request{WorkloadJSON: []byte(wl), Profile: "bogus"}
}

// TestFailingKeyChurnAtBound is the removal-path regression: hammering
// unique failing keys with the cache at its bound must neither grow the
// cache nor evict the resident working set (in-flight entries are
// unevictable AND uncounted), and every discard is an O(1) LRU unlink.
func TestFailingKeyChurnAtBound(t *testing.T) {
	const bound = 16
	s := fastServiceWith(Config{MaxCachedSchedules: bound})
	// Fill the cache exactly to its bound with resident keys.
	resident := make([]Request, bound)
	for i := range resident {
		wl := fmt.Sprintf(`{"name": "res-%d", "models": [{"name": "m0", "layers": [{"name": "g0", "type": "gemm", "c": 16, "k": 16, "y": 16}]}]}`, i)
		resident[i] = Request{WorkloadJSON: []byte(wl), Profile: "edge"}
		if _, err := s.Schedule(context.Background(), resident[i]); err != nil {
			t.Fatal(err)
		}
	}
	searches := s.Stats().ScheduleCalls
	if searches != bound {
		t.Fatalf("population ran %d searches, want %d", searches, bound)
	}

	// Concurrent failing-key churn, several times the bound.
	churn := 16 * bound
	if testing.Short() {
		churn = 4 * bound
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < churn/8; i++ {
				if _, err := s.Schedule(context.Background(), failingRequest(g*churn+i)); err == nil {
					t.Error("failing request succeeded")
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.CachedSchedules != bound {
		t.Errorf("after churn: %d cached schedules, want the full resident set of %d", st.CachedSchedules, bound)
	}
	if st.InflightSearches != 0 {
		t.Errorf("after churn: %d in-flight searches leaked", st.InflightSearches)
	}
	// The resident keys survived: re-requesting them is all hits.
	for _, r := range resident {
		res, err := s.Schedule(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("resident key %s was evicted by failing-key churn", res.Key)
		}
	}
	if got := s.Stats().ScheduleCalls; got != searches {
		t.Errorf("failing-key churn forced %d re-searches of resident keys", got-searches)
	}
}

// TestSingleflightPerShard is the sharded singleflight invariant: N
// identical concurrent requests per key, across many keys spread over
// every shard, trigger exactly one search per key.
func TestSingleflightPerShard(t *testing.T) {
	s := fastService()
	const keys = 24 // > defaultShardCount(): several keys per shard
	const waiters = 6
	reqs := make([]Request, keys)
	for i := range reqs {
		wl := fmt.Sprintf(`{"name": "sf-%d", "models": [{"name": "m0", "layers": [{"name": "g0", "type": "gemm", "c": 16, "k": 16, "y": 16}]}]}`, i)
		reqs[i] = Request{WorkloadJSON: []byte(wl), Profile: "edge"}
	}
	var wg sync.WaitGroup
	errs := make([]error, keys*waiters)
	for i := range reqs {
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				_, errs[i*waiters+w] = s.Schedule(context.Background(), reqs[i])
			}(i, w)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.ScheduleCalls != keys {
		t.Errorf("schedule calls = %d, want exactly %d (one per key)", st.ScheduleCalls, keys)
	}
	if st.Requests != keys*waiters {
		t.Errorf("requests = %d, want %d", st.Requests, keys*waiters)
	}
	if st.CacheHits != keys*(waiters-1) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, keys*(waiters-1))
	}
	if st.CachedSchedules != keys || st.InflightSearches != 0 {
		t.Errorf("cached=%d inflight=%d, want %d/0", st.CachedSchedules, st.InflightSearches, keys)
	}
}

// TestEvictionSingleflightStress races Schedule and Stats across shards
// with the cache at a tiny bound and a mixed hit/miss/failing-key load
// (run under -race in CI). It asserts the structural invariants that
// must hold no matter how eviction and singleflight interleave: the
// bound is respected, in-flight accounting returns to zero, every
// successful result is complete, and identical concurrent requests for
// a key not under eviction pressure dedup into one search.
func TestEvictionSingleflightStress(t *testing.T) {
	const bound = 4
	s := fastServiceWith(Config{MaxCachedSchedules: bound})
	mkHit := func(i int) Request {
		wl := fmt.Sprintf(`{"name": "stress-%d", "models": [{"name": "m0", "layers": [{"name": "g0", "type": "gemm", "c": 16, "k": 16, "y": 16}]}]}`, i)
		return Request{WorkloadJSON: []byte(wl), Profile: "edge"}
	}
	goroutines := 8
	iters := 40
	if testing.Short() {
		iters = 12
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1: // hot keys, shared across goroutines
					res, err := s.Schedule(context.Background(), mkHit(i%(2*bound)))
					if err != nil {
						t.Errorf("hit key: %v", err)
					} else if res.Result == nil || res.Result.Partial {
						t.Error("successful result incomplete")
					}
				case 2: // unique failing key
					if _, err := s.Schedule(context.Background(), failingRequest(1_000_000+g*iters+i)); err == nil {
						t.Error("failing request succeeded")
					}
				case 3:
					st := s.Stats()
					if st.CachedSchedules > bound {
						t.Errorf("cached schedules %d exceeds bound %d", st.CachedSchedules, bound)
					}
					if st.InflightSearches < 0 {
						t.Errorf("negative inflight %d", st.InflightSearches)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.InflightSearches != 0 {
		t.Errorf("in-flight searches leaked: %d", st.InflightSearches)
	}
	if st.CachedSchedules > bound {
		t.Errorf("cached schedules %d exceeds bound %d", st.CachedSchedules, bound)
	}
	if st.CacheHits == 0 {
		t.Error("stress never hit the cache")
	}
}

// TestRequestValidation pins the wire-boundary validation: garbage
// dimensions and timeouts answer clean errors without touching the
// cache or the search machinery.
func TestRequestValidation(t *testing.T) {
	s := fastService()
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"negative width", Request{Scenario: 1, Width: -3, Height: 3}, "dimensions must be positive"},
		{"negative height", Request{Scenario: 1, Width: 3, Height: -1}, "dimensions must be positive"},
		{"excessive dims", Request{Scenario: 1, Width: 1000, Height: 1000}, "exceed"},
		{"negative timeout", Request{Scenario: 1, TimeoutMS: -5}, "negative timeout_ms"},
		{"negative scenario", Request{Scenario: -2}, "negative scenario"},
	} {
		_, err := s.Schedule(context.Background(), tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	st := s.Stats()
	if st.ScheduleCalls != 0 || st.CachedSchedules != 0 || st.InflightSearches != 0 {
		t.Errorf("invalid requests touched the cache: %+v", st)
	}
}

// TestSimulateConcurrentMatchesSequential: concurrent class scheduling
// must produce a report bit-identical to scheduling the classes one at
// a time (searches are independent and deterministic).
func TestSimulateConcurrentMatchesSequential(t *testing.T) {
	mkReq := func() SimRequest {
		classes := make([]SimClass, 3)
		for i := range classes {
			wl := fmt.Sprintf(`{"name": "simc-%d", "models": [{"name": "m0", "fps": 5, "layers": [{"name": "g0", "type": "gemm", "c": 32, "k": 32, "y": 32}]}]}`, i)
			classes[i] = SimClass{
				Request:    Request{WorkloadJSON: []byte(wl), Profile: "edge"},
				Name:       fmt.Sprintf("c%d", i),
				RatePerSec: 3,
				Seed:       int64(i) + 7,
			}
		}
		return SimRequest{Classes: classes, MaxRequestsPerClass: 30, HorizonSec: 1e9, Packages: 2}
	}

	// Sequential reference: resolve every class through the cache one
	// at a time, then simulate (all hits).
	seq := fastService()
	req := mkReq()
	for _, cl := range req.Classes {
		if _, err := seq.Schedule(context.Background(), cl.Request); err != nil {
			t.Fatal(err)
		}
	}
	want, err := seq.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent path: Simulate schedules the (cold) classes itself.
	conc := fastService()
	got, err := conc.Simulate(context.Background(), mkReq())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent scheduling changed the report:\n got %+v\nwant %+v", got, want)
	}
	if st := conc.Stats(); st.ScheduleCalls != int64(len(req.Classes)) {
		t.Errorf("concurrent path ran %d searches, want %d", st.ScheduleCalls, len(req.Classes))
	}
}

// TestSimulateDuplicateClassesDedup: identical classes in one Simulate
// call collapse into a single search via the per-shard singleflight.
func TestSimulateDuplicateClassesDedup(t *testing.T) {
	s := fastService()
	cl := SimClass{Request: tinyRequest(), Name: "dup", RatePerSec: 2, Seed: 3}
	req := SimRequest{Classes: []SimClass{cl, cl, cl}, MaxRequestsPerClass: 10, HorizonSec: 1e9}
	if _, err := s.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ScheduleCalls != 1 {
		t.Errorf("three identical classes ran %d searches, want 1", st.ScheduleCalls)
	}
}

// TestShardCacheHitZeroAllocs pins the //scar:hotpath contract on the
// singleflight hit path at runtime (hotalloc proves it statically):
// looking up a completed entry must not allocate.
func TestShardCacheHitZeroAllocs(t *testing.T) {
	c := newShardedCache(8, 16)
	const key = "alloc-pin"
	e, created := c.lookupOrStart(key)
	if !created {
		t.Fatal("first lookup did not create the entry")
	}
	c.complete(key, e)
	close(e.done)
	if n := testing.AllocsPerRun(1000, func() {
		got, created := c.lookupOrStart(key)
		if created || got != e {
			t.Fatal("lookup did not hit the completed entry")
		}
	}); n != 0 {
		t.Errorf("lookupOrStart hit path allocates %v/op, want 0", n)
	}
}
