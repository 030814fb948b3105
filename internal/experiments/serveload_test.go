package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestServeLoadTinyConfig runs the serve-layer load generator at a
// deliberately tiny operating point and checks the structural
// (hardware-independent) properties of the snapshot: the sharded cache
// measured over all three mixes, immune to working-set erosion
// (searches_run == 0 off the churn mix), error ops confined to the
// failing-key stream, and the JSON snapshot round-tripping.
func TestServeLoadTinyConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("load generator runs wall-clock intervals")
	}
	s := NewSuite()
	res, err := s.ServeLoad(t.Context(), ServeLoadConfig{
		Keys:          6,
		Goroutines:    4,
		Duration:      60 * time.Millisecond,
		HitFraction:   0.75,
		MinGOMAXPROCS: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) > 2 && runtime.NumCPU() < 2 {
		t.Errorf("GOMAXPROCS not restored after measurement: %d", runtime.GOMAXPROCS(0))
	}

	if len(res.Impls) != 1 || res.Impls[0].Impl != "sharded" || res.Impls[0].Shards < 1 {
		t.Fatalf("implementations: %+v", res.Impls)
	}
	wantMixes := []string{"hit", "mixed", "churn"}
	points := res.Impls[0].Points
	if len(points) != len(wantMixes) {
		t.Fatalf("measured %d mixes, want %d", len(points), len(wantMixes))
	}
	for i, p := range points {
		if p.Mix != wantMixes[i] {
			t.Errorf("point %d mix %q, want %q", i, p.Mix, wantMixes[i])
		}
		if p.Ops <= 0 || p.ThroughputRPS <= 0 {
			t.Errorf("%s measured no load: %+v", p.Mix, p)
		}
		if p.Mix == "hit" && p.ErrorOps != 0 {
			t.Errorf("hit answered %d errors", p.ErrorOps)
		}
		if p.Mix != "hit" && p.ErrorOps == 0 {
			t.Errorf("%s saw no failing keys", p.Mix)
		}
		// The erosion invariant: on hit and mixed workloads the cache
		// keeps its working set resident, so zero searches run during
		// the measured interval.
		if p.Mix != "churn" && p.SearchesRun != 0 {
			t.Errorf("%s ran %d searches during measurement (working set eroded)", p.Mix, p.SearchesRun)
		}
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ServeLoadResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if back.Keys != 6 || len(back.Impls) != 1 {
		t.Errorf("round-tripped snapshot lost fields: %+v", back)
	}
	res.Print(&buf) // must not panic
}
