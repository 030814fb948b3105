package main

import (
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"
)

func TestServePlanIsSeededAndHoldsTheMix(t *testing.T) {
	keys := residentKeys(false)
	// 30 s at 400/s is about 12,000 draws.
	a := planServeOpen(7, 30, keys)
	if b := planServeOpen(7, 30, keys); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed planned two different schedules")
	}
	if c := planServeOpen(8, 30, keys); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds planned the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-30*serveRate) > 0.05*30*serveRate {
		t.Errorf("%v arrivals in 30 s, want about %v", n, 30*serveRate)
	}
	counts := map[reqKind]int{}
	for i, p := range a {
		counts[p.kind]++
		if i > 0 && p.due < a[i-1].due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if p.due >= 30*time.Second {
			t.Fatalf("request %d is due after the horizon", i)
		}
	}
	for k, per100 := range mixPer100 {
		got := 100 * float64(counts[reqKind(k)]) / float64(len(a))
		if math.Abs(got-float64(per100)) > 0.5 {
			t.Errorf("%s share %.2f%%, want %d%% within 0.5 points", reqKind(k), got, per100)
		}
	}
}

func TestServeMissesNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range planServeOpen(3, 30, residentKeys(false)) {
		if p.kind != kindMiss {
			continue
		}
		if seen[string(p.body)] {
			t.Fatalf("miss body repeated: %s", p.body)
		}
		seen[string(p.body)] = true
	}
}

func TestGoodputCountsFailuresAsOverLimit(t *testing.T) {
	d := &daemon{resident: []scheduleReply{{Key: "k", Metrics: []byte(`{"LatencySec":1}`)}}}
	hit := planned{kind: kindHit, key: 0}
	hitBody := []byte(`{"key":"k","cached":true,"metrics":{"LatencySec":1},"elapsed_ms":0.05}`)
	fast := time.Millisecond

	for _, tc := range []struct {
		name   string
		p      planned
		status int
		body   []byte
		lat    time.Duration
		good   bool
	}{
		{"correct and fast", hit, http.StatusOK, hitBody, fast, true},
		{"correct but over the limit", hit, http.StatusOK, hitBody, latencyLimit + time.Millisecond, false},
		{"server error", hit, http.StatusInternalServerError, []byte(`{"error":"x","status":500}`), fast, false},
		{"hit answered by a new search", hit, http.StatusOK, []byte(`{"key":"k","cached":false,"metrics":{"LatencySec":1}}`), fast, false},
		{"malformed request answered 200", planned{kind: kindBad}, http.StatusOK, hitBody, fast, false},
		{"malformed request answered 400", planned{kind: kindBad}, http.StatusBadRequest, []byte(`{"error":"bad","status":400}`), fast, true},
	} {
		s := sent{latency: tc.lat}
		s.why = d.check(tc.p, tc.status, tc.body, &s)
		s.ok = s.why == ""
		if s.good() != tc.good {
			t.Errorf("%s: counted toward goodput = %t, want %t (check: %q)", tc.name, s.good(), tc.good, s.why)
		}
	}
}
