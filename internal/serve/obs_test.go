package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"example.com/scar/internal/obs"
	"example.com/scar/internal/online"
	"example.com/scar/internal/trace"
)

// obsService builds a fast service with metrics/trace endpoints mounted
// and a live tracer, the scarserve -metrics configuration.
func obsService() *Service {
	return fastServiceWith(Config{
		ExposeMetrics: true,
		Obs:           obs.New(obs.Config{TraceBuffer: 16}),
	})
}

func TestHTTPEndpointMetricsAndStats(t *testing.T) {
	svc := obsService()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"workload_json": %s, "profile": "edge"}`, tinyWorkload)
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, srv.URL+"/schedule", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule %d: %d %s", i, resp.StatusCode, data)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Error("response missing X-Request-ID")
		}
	}
	// One 4xx answer must land in its own status class.
	resp, _ := postJSON(t, srv.URL+"/schedule", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty schedule: %d, want 400", resp.StatusCode)
	}

	st := svc.Stats()
	if len(st.Endpoints) == 0 {
		t.Fatal("Stats().Endpoints empty after requests")
	}
	var sched *EndpointStats
	for i := range st.Endpoints {
		if st.Endpoints[i].Endpoint == "schedule" {
			sched = &st.Endpoints[i]
		}
	}
	if sched == nil {
		t.Fatalf("no schedule endpoint stats: %+v", st.Endpoints)
	}
	if sched.Requests != 4 {
		t.Errorf("schedule requests = %d, want 4 (3 ok + 1 bad)", sched.Requests)
	}
	if sched.P50Ms <= 0 || sched.P99Ms < sched.P50Ms {
		t.Errorf("implausible quantiles: %+v", *sched)
	}

	// The same view rides the /stats wire under "endpoints".
	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var wire struct {
		Endpoints []EndpointStats `json:"endpoints"`
	}
	if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Endpoints) == 0 {
		t.Error("/stats JSON missing endpoints")
	}
}

// TestHTTPMetricsExposition is the acceptance contract: /metrics serves
// Prometheus text exposition counting both a /schedule and a /simulate
// request in the per-endpoint histograms.
func TestHTTPMetricsExposition(t *testing.T) {
	svc := obsService()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if resp, data := postJSON(t, srv.URL+"/schedule",
		fmt.Sprintf(`{"workload_json": %s, "profile": "edge"}`, tinyWorkload)); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, srv.URL+"/simulate", fmt.Sprintf(`{
	  "classes": [{"workload_json": %s, "profile": "edge", "rate_per_sec": 5}],
	  "max_requests_per_class": 10
	}`, tinyWorkload)); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, data)
	}

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`scar_http_request_duration_seconds_count{endpoint="schedule",code="2xx"} 1`,
		`scar_http_request_duration_seconds_count{endpoint="simulate",code="2xx"} 1`,
		`scar_http_requests_total{endpoint="schedule",code="2xx"} 1`,
		"# TYPE scar_http_request_duration_seconds histogram",
		// 2: the HTTP /schedule call plus the simulate class's (cached)
		// schedule resolution.
		"scar_schedule_requests_total 2",
		"scar_simulations_total 1",
		"scar_costdb_entries",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "NaN") || strings.Contains(text, "+Inf}  ") {
		t.Errorf("malformed exposition:\n%s", text)
	}
}

// TestStatsAgreeWithMetrics drives one service through every counted
// outcome — a search, a hit, a simulation, a degraded answer, a
// saturated reject and a drain reject — and asserts that each Stats
// counter equals its scar_*_total series in the Prometheus exposition.
func TestStatsAgreeWithMetrics(t *testing.T) {
	fp, started, release := holdPoint("edp")
	// One shard with a one-entry bound, so the second search evicts the
	// first key's entry while its stale answer survives.
	svc := fastServiceWith(Config{
		Shards:                1,
		MaxCachedSchedules:    1,
		MaxConcurrentSearches: 1,
		AdmissionWait:         20 * time.Millisecond,
		FailPoints:            fp,
	})
	ctx := context.Background()
	mustSchedule := func(r Request) {
		t.Helper()
		if _, err := svc.Schedule(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	mustSchedule(tinyRequestObj("latency")) // search
	mustSchedule(tinyRequestObj("latency")) // hit
	if _, err := svc.Simulate(ctx, SimRequest{
		Classes:             []SimClass{{Request: tinyRequestObj("latency"), RatePerSec: 5}},
		MaxRequestsPerClass: 5,
	}); err != nil {
		t.Fatal(err)
	}
	mustSchedule(tinyRequestObj("energy")) // search, evicts latency

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(ctx, tinyRequestObj("edp"))
		leaderDone <- err
	}()
	<-started
	if sr, err := svc.Schedule(ctx, tinyRequestObj("latency")); err != nil || !sr.Degraded {
		t.Fatalf("evicted key while saturated: %+v, %v; want a degraded answer", sr, err)
	}
	unseen := tinyRequestObj("latency")
	unseen.Width, unseen.Height = 2, 2
	if _, err := svc.Schedule(ctx, unseen); !errors.Is(err, ErrSaturated) {
		t.Fatalf("unseen key while saturated: %v, want ErrSaturated", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain()
	if _, err := svc.Schedule(ctx, tinyRequest()); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: %v, want ErrDraining", err)
	}

	var buf bytes.Buffer
	if err := svc.Obs().Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			series[name] = v
		}
	}
	st := svc.Stats()
	for name, got := range map[string]int64{
		"scar_schedule_requests_total":   st.Requests,
		"scar_schedule_searches_total":   st.ScheduleCalls,
		"scar_schedule_cache_hits_total": st.CacheHits,
		"scar_simulations_total":         st.Simulations,
		"scar_saturated_rejects_total":   st.SaturatedRejects,
		"scar_degraded_answers_total":    st.DegradedAnswers,
		"scar_drain_rejects_total":       st.DrainRejects,
	} {
		if got == 0 {
			t.Errorf("Stats counter behind %s is 0; the scenario did not exercise it", name)
		}
		if want := strconv.FormatInt(got, 10); series[name] != want {
			t.Errorf("%s = %q on /metrics, Stats says %s", name, series[name], want)
		}
	}
}

// TestHTTPTraceRoundTrip pins the end-to-end tracing path: a scheduled
// request's span timeline is served on /trace as Chrome trace JSON that
// trace.ParseChromeTrace accepts, containing the serve-layer phases.
func TestHTTPTraceRoundTrip(t *testing.T) {
	svc := obsService()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if resp, data := postJSON(t, srv.URL+"/schedule",
		fmt.Sprintf(`{"workload_json": %s, "profile": "edge"}`, tinyWorkload)); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, data)
	}
	r, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/trace: %d", r.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	tl, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("/trace body does not round-trip: %v", err)
	}
	labels := make(map[string]bool)
	prefixed := func(prefix string) bool {
		for l := range labels {
			if strings.HasPrefix(l, prefix) {
				return true
			}
		}
		return false
	}
	for _, sp := range tl.Spans {
		labels[sp.Label] = true
	}
	if !labels["cache lookup"] || !labels["search"] {
		t.Errorf("trace missing serve phases: %v", labels)
	}
	if !prefixed("schedule r") {
		t.Errorf("trace missing request span labeled with its ID: %v", labels)
	}
	if !prefixed("cand ") {
		t.Errorf("trace missing search progress laps: %v", labels)
	}
}

// TestSimulateCollectTiming pins the wire-level per-phase simulator
// timing: set collect_timing and the report carries a consistent
// breakdown; leave it unset and the field stays absent so reports of
// identical configurations remain comparable.
func TestSimulateCollectTiming(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{
	  "classes": [{"workload_json": %s, "profile": "edge", "rate_per_sec": 5}],
	  "max_requests_per_class": 20,
	  "collect_timing": true
	}`, tinyWorkload)
	resp, data := postJSON(t, srv.URL+"/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, data)
	}
	var rep online.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Timing == nil {
		t.Fatal("collect_timing did not attach timings")
	}
	sum := rep.Timing.ValidateMs + rep.Timing.ArrivalsMs + rep.Timing.EventLoopMs + rep.Timing.AggregateMs
	if sum <= 0 || rep.Timing.TotalMs < sum {
		t.Errorf("inconsistent phase timings: %+v", rep.Timing)
	}

	resp, data = postJSON(t, srv.URL+"/simulate", strings.Replace(body, `"collect_timing": true`, `"collect_timing": false`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, data)
	}
	if bytes.Contains(data, []byte(`"timing"`)) {
		t.Error("timing emitted without collect_timing")
	}
}

// TestHealthzMethodGuard pins the satellite fix: /healthz and /stats
// answer non-GET methods identically (405 with the JSON error shape),
// where /healthz previously answered 200 to anything.
func TestHealthzMethodGuard(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/stats"} {
		resp, data := postJSON(t, srv.URL+path, `{}`)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		var he httpError
		if err := json.Unmarshal(data, &he); err != nil || he.Status != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: error body %s", path, data)
		}
	}
}

// TestMetricsNotMountedByDefault: the observability endpoints are
// opt-in; a default service must not reveal them.
func TestMetricsNotMountedByDefault(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/trace"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on default service: %d, want 404", path, r.StatusCode)
		}
	}
}
