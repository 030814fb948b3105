package online

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// FuzzTraceArrivals drives trace validation with arbitrary float
// patterns (decoded 8 bytes at a time, so NaN and the infinities are
// reachable — JSON-based corpora can never produce them). Whatever
// NewTrace accepts must generate a finite, ascending, bounded arrival
// sequence: that is the contract the simulator's event clock relies on.
func FuzzTraceArrivals(f *testing.F) {
	ascending := make([]byte, 24)
	for i, v := range []float64{0, 1, 2.5} {
		binary.LittleEndian.PutUint64(ascending[8*i:], math.Float64bits(v))
	}
	f.Add(ascending)
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		times := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			times = append(times, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		tr, err := NewTrace(times)
		if err != nil {
			return
		}
		const horizon, max = 10.0, 5
		out, err := tr.Times(context.Background(), horizon, max)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > max {
			t.Fatalf("Times returned %d arrivals, max %d", len(out), max)
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite arrival %v escaped validation", v)
			}
			if v >= horizon {
				t.Fatalf("arrival %v at or past the %v horizon", v, horizon)
			}
			if i > 0 && v < out[i-1] {
				t.Fatalf("arrivals not ascending: %v after %v", v, out[i-1])
			}
		}
	})
}

// FuzzSimulateMatchesReference decodes a small simulation configuration
// from the fuzz bytes (queueConfigFromBytes) and requires Simulate to
// reproduce the flat-queue reference engine bit-for-bit.
func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2, 200, 1, 3, 7, 255, 4, 3, 2, 1, 0, 8, 0, 1, 2, 3, 1, 1, 2, 0, 5, 2, 2, 1, 2})
	f.Add([]byte{2, 0, 120, 1, 2, 0, 180, 2, 1, 4, 3, 1, 1, 0, 1, 0, 0, 1, 5, 1, 1, 1})
	base := mustClass(f, "base", nil, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := queueConfigFromBytes(base, data)
		want := referenceQueueSimulate(t, cfg)
		got, err := Simulate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine diverged from the flat-queue reference\ngot:  %+v\nwant: %+v", got, want)
		}
	})
}
