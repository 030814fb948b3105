package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"example.com/scar/internal/online"
)

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPScheduleEndpoint(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"workload_json": %s, "profile": "edge", "include_schedule": true}`, tinyWorkload)
	resp, data := postJSON(t, srv.URL+"/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var sr ScheduleHTTPResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("response not valid JSON: %v\n%s", err, data)
	}
	if sr.Cached {
		t.Error("first request reported cached")
	}
	if sr.Windows < 1 || sr.Metrics.LatencySec <= 0 || sr.Metrics.EnergyJ <= 0 {
		t.Errorf("implausible schedule response: %+v", sr)
	}
	if sr.Schedule == nil || len(sr.Schedule.Windows) != sr.Windows {
		t.Errorf("include_schedule did not attach the schedule")
	}

	// Identical request: served from cache.
	resp, data = postJSON(t, srv.URL+"/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Error("second identical request not served from cache")
	}
}

func TestHTTPSimulateAndStats(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{
	  "classes": [{"workload_json": %s, "profile": "edge", "name": "tiny", "rate_per_sec": 5, "seed": 3}],
	  "max_requests_per_class": 40,
	  "horizon_sec": 1e9
	}`, tinyWorkload)
	resp, data := postJSON(t, srv.URL+"/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rep online.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("simulate response not valid JSON: %v\n%s", err, data)
	}
	if rep.Requests != 40 {
		t.Errorf("simulated requests = %d, want 40", rep.Requests)
	}
	if rep.SLAAttainment < 0 || rep.SLAAttainment > 1 {
		t.Errorf("SLA attainment = %v", rep.SLAAttainment)
	}
	if len(rep.PerClass) != 1 || rep.PerClass[0].Name != "tiny" {
		t.Errorf("per-class report: %+v", rep.PerClass)
	}

	resp, data = postJSON(t, srv.URL+"/simulate", `{"classes": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty simulate: status %d, want 400 (%s)", resp.StatusCode, data)
	}

	// The packages/policy wire fields reach the engine and are echoed.
	fleetBody := fmt.Sprintf(`{
	  "classes": [{"workload_json": %s, "profile": "edge", "name": "tiny", "rate_per_sec": 5, "seed": 3}],
	  "max_requests_per_class": 40,
	  "horizon_sec": 1e9,
	  "packages": 2,
	  "policy": "switch-aware"
	}`, tinyWorkload)
	resp, data = postJSON(t, srv.URL+"/simulate", fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet simulate: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("fleet simulate response not valid JSON: %v\n%s", err, data)
	}
	if rep.Packages != 2 || rep.Policy != "switch-aware" || len(rep.PerPackage) != 2 {
		t.Errorf("fleet wire fields not honored: packages %d, policy %q, per_package %d",
			rep.Packages, rep.Policy, len(rep.PerPackage))
	}

	resp, data = postJSON(t, srv.URL+"/simulate", `{"classes": [{"scenario": 8, "rate_per_sec": 1}], "policy": "lifo"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown policy: status %d, want 400 (%s)", resp.StatusCode, data)
	}

	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Two accepted simulations over one underlying search (the fleet
	// run reuses the cached schedule); the rejected requests (empty
	// classes, unknown policy) count nowhere.
	if st.Simulations != 2 || st.ScheduleCalls != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 simulations over 1 search and 1 cache hit (rejected requests are not counted)", st)
	}
	if st.CostEntries <= 0 || st.CostMisses <= 0 {
		t.Errorf("cost database stats empty: %+v", st)
	}
}

func TestHTTPMethodAndBodyGuards(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()

	r, err := http.Get(srv.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /schedule: status %d, want 405", r.StatusCode)
	}

	resp, data := postJSON(t, srv.URL+"/schedule", `{"scenario": `)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: status %d (%s)", resp.StatusCode, data)
	}
	var e httpError
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Errorf("error body not JSON: %s", data)
	}

	resp, data = postJSON(t, srv.URL+"/schedule", `{"scenario": 1, "bogus_field": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d (%s)", resp.StatusCode, data)
	}

	resp, _ = postJSON(t, srv.URL+"/schedule", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", resp.StatusCode)
	}

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", r.StatusCode)
	}
}

// TestHTTPValidationRejects pins the wire-boundary validation: garbage
// dimensions and timeouts must answer a clean 400 with a JSON error
// body, not reach the search machinery (previously a negative width
// surfaced as an opaque pattern-construction failure, and a negative
// timeout_ms silently disabled the caller's deadline).
func TestHTTPValidationRejects(t *testing.T) {
	svc := fastService()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, body, want string
	}{
		{"negative width", `{"scenario": 1, "width": -3, "height": 3}`, "dimensions must be positive"},
		{"negative height", `{"scenario": 1, "width": 3, "height": -1}`, "dimensions must be positive"},
		{"excessive dims", `{"scenario": 1, "width": 4096, "height": 4096}`, "exceed"},
		{"negative timeout", `{"scenario": 1, "timeout_ms": -100}`, "negative timeout_ms"},
		{"negative scenario", `{"scenario": -7}`, "negative scenario"},
	} {
		resp, data := postJSON(t, srv.URL+"/schedule", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		var he httpError
		if err := json.Unmarshal(data, &he); err != nil {
			t.Errorf("%s: error body not JSON: %v\n%s", tc.name, err, data)
			continue
		}
		if !bytes.Contains([]byte(he.Error), []byte(tc.want)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, he.Error, tc.want)
		}
	}

	// /simulate inherits the same per-class validation.
	resp, data := postJSON(t, srv.URL+"/simulate",
		`{"classes": [{"scenario": 1, "width": -2, "rate_per_sec": 1}], "max_requests_per_class": 5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("simulate with invalid class: status %d, want 400 (%s)", resp.StatusCode, data)
	}

	// None of the rejected requests may have touched the cache or
	// started a search.
	if st := svc.Stats(); st.ScheduleCalls != 0 || st.CachedSchedules != 0 || st.InflightSearches != 0 {
		t.Errorf("invalid requests reached the cache: %+v", st)
	}
}

// TestHTTPSimulateBounds pins /simulate's count limits: a packages
// value or class list past MaxSimPackages / MaxSimClasses answers a
// clean 400 before any search runs, while the limits themselves are
// accepted.
func TestHTTPSimulateBounds(t *testing.T) {
	svc := fastService()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	class := fmt.Sprintf(`{"workload_json": %s, "profile": "edge", "rate_per_sec": 5}`, tinyWorkload)
	classes := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(class+",", n), ",") + "]"
	}
	for _, tc := range []struct {
		name, body, want string
	}{
		{"packages", fmt.Sprintf(`{"classes": %s, "packages": 1000000000}`, classes(1)), "packages exceed"},
		{"classes", fmt.Sprintf(`{"classes": %s}`, classes(MaxSimClasses+1)), "classes exceed"},
	} {
		resp, data := postJSON(t, srv.URL+"/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		var he httpError
		if err := json.Unmarshal(data, &he); err != nil || !strings.Contains(he.Error, tc.want) {
			t.Errorf("%s: error body %s does not mention %q", tc.name, data, tc.want)
		}
	}
	if st := svc.Stats(); st.ScheduleCalls != 0 || st.Simulations != 0 {
		t.Errorf("oversized simulations reached the search or the simulator: %+v", st)
	}

	resp, data := postJSON(t, srv.URL+"/simulate", fmt.Sprintf(
		`{"classes": %s, "packages": %d, "max_requests_per_class": 2, "horizon_sec": 1e9}`, classes(MaxSimClasses), MaxSimPackages))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("simulation at both limits: status %d (%s)", resp.StatusCode, data)
	}
}

// TestHTTPSimulateArrivalBound pins /simulate's arrival cap: a request
// whose classes may generate more than MaxSimArrivals arrivals in total
// answers a clean 400 before any search or arrival generation runs,
// whether the load comes from rate × horizon, max_requests_per_class or
// trace lengths, while a request at the cap is accepted.
func TestHTTPSimulateArrivalBound(t *testing.T) {
	svc := fastService()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	poisson := func(rate float64) string {
		return fmt.Sprintf(`{"workload_json": %s, "profile": "edge", "rate_per_sec": %g}`, tinyWorkload, rate)
	}
	trace := func(n int) string {
		return fmt.Sprintf(`{"workload_json": %s, "profile": "edge", "arrival_times": [%s]}`,
			tinyWorkload, strings.TrimSuffix(strings.Repeat("1,", n), ","))
	}
	half := MaxSimArrivals / 2
	for _, tc := range []struct{ name, body string }{
		{"rate x horizon", fmt.Sprintf(`{"classes": [%s], "horizon_sec": 1e6}`, poisson(1e9))},
		{"requests per class", fmt.Sprintf(`{"classes": [%s, %s], "max_requests_per_class": %d}`, poisson(1), poisson(1), half+1)},
		{"horizon over requests cap", fmt.Sprintf(`{"classes": [%s], "horizon_sec": 1e300, "max_requests_per_class": %d}`, poisson(1e300), MaxSimArrivals+1)},
		{"traces plus rate", fmt.Sprintf(`{"classes": [%s, %s], "horizon_sec": %d}`, trace(half), poisson(1), half+1)},
	} {
		resp, data := postJSON(t, srv.URL+"/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%.200s)", tc.name, resp.StatusCode, data)
		}
		var he httpError
		if err := json.Unmarshal(data, &he); err != nil || !strings.Contains(he.Error, "arrivals exceed") {
			t.Errorf("%s: error body %.200s does not mention the arrival limit", tc.name, data)
		}
	}
	if st := svc.Stats(); st.ScheduleCalls != 0 || st.Simulations != 0 {
		t.Errorf("oversized simulations reached the search or the simulator: %+v", st)
	}

	// Exactly at the cap passes validation; one more arrival does not.
	atCap := SimRequest{
		Classes: []SimClass{
			{Request: Request{Scenario: 1}, RatePerSec: 2},
			{Request: Request{Scenario: 1}, ArrivalTimes: []float64{0, 1, 2, 3}},
		},
		HorizonSec: float64(MaxSimArrivals-4) / 2,
	}
	if err := atCap.validate(); err != nil {
		t.Errorf("request at the arrival limit rejected: %v", err)
	}
	atCap.HorizonSec += 0.25
	if err := atCap.validate(); err == nil {
		t.Error("request one arrival past the limit accepted")
	}

	resp, data := postJSON(t, srv.URL+"/simulate", fmt.Sprintf(
		`{"classes": [%s, %s], "horizon_sec": 0.5, "max_requests_per_class": 3}`, poisson(1), trace(4)))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("simulation within the arrival limit: status %d (%.200s)", resp.StatusCode, data)
	}
}

// TestHTTPStatsExposesShardFields pins the new stats wire fields.
func TestHTTPStatsExposesShardFields(t *testing.T) {
	srv := httptest.NewServer(fastService().Handler())
	defer srv.Close()
	resp, data := postJSON(t, srv.URL+"/schedule", fmt.Sprintf(`{"workload_json": %s, "profile": "edge"}`, tinyWorkload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, data)
	}
	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for field, want := range map[string]float64{
		"cached_schedules": 1, "inflight_searches": 0, "shards": float64(defaultShardCount()),
	} {
		got, ok := st[field].(float64)
		if !ok {
			t.Errorf("stats JSON missing %q: %v", field, st)
		} else if got != want {
			t.Errorf("stats %s = %v, want %v", field, got, want)
		}
	}
}

// TestHTTPReadOnlyMethodGuardShape pins the shared getOnly guard: every
// read-only endpoint answers a non-GET verb with the identical 405 wire
// shape — writeError's {"error", "status"} JSON — so probes cannot mask
// breakage behind a verb-dependent 200 (the pre-PR-8 /healthz bug) and
// clients can rely on one error schema across endpoints.
func TestHTTPReadOnlyMethodGuardShape(t *testing.T) {
	srv := httptest.NewServer(obsService().Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/stats", "/metrics", "/trace"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, srv.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			_, readErr := buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if readErr != nil {
				t.Fatal(readErr)
			}
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
				continue
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: content type %q, want application/json", method, path, ct)
			}
			var raw map[string]any
			if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
				t.Errorf("%s %s: 405 body not JSON: %v\n%s", method, path, err, buf.Bytes())
				continue
			}
			if raw["error"] != "use GET" || raw["status"] != float64(http.StatusMethodNotAllowed) {
				t.Errorf("%s %s: 405 body %s, want {\"error\":\"use GET\",\"status\":405}", method, path, buf.Bytes())
			}
			if _, ok := raw["retry_after_sec"]; ok {
				t.Errorf("%s %s: 405 body leaks retry_after_sec", method, path)
			}
		}
	}
}
