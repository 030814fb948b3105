package serve

import (
	"context"
	"fmt"
	"testing"
)

// benchService builds a populated service for cache-path benchmarks:
// nkeys resident schedules over a warm shared cost database, so the
// measured loop is pure cache traffic.
func benchService(b *testing.B, nkeys int) (*Service, []Request) {
	b.Helper()
	s := fastService()
	reqs := make([]Request, nkeys)
	for i := range reqs {
		wl := fmt.Sprintf(`{"name": "bench-%d", "models": [{"name": "m0", "layers": [{"name": "g0", "type": "gemm", "c": 16, "k": 16, "y": 16}]}]}`, i)
		reqs[i] = Request{WorkloadJSON: []byte(wl), Profile: "edge"}
		if _, err := s.Schedule(context.Background(), reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, reqs
}

// BenchmarkScheduleCacheHit measures the saturated cache-hit path —
// the 100k+ RPS regime the sharded cache targets.
func BenchmarkScheduleCacheHit(b *testing.B) {
	s, reqs := benchService(b, 64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			res, err := s.Schedule(context.Background(), reqs[i%len(reqs)])
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("benchmark key missed the cache")
			}
			i++
		}
	})
}

// BenchmarkStats measures the Stats read path, which merges every
// counter's shards.
func BenchmarkStats(b *testing.B) {
	s, _ := benchService(b, 8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if st := s.Stats(); st.CachedSchedules != 8 {
				b.Fatal("stats lost entries")
			}
		}
	})
}
