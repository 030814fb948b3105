package main

import (
	"math"
	"testing"
)

func samples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestCheckedQuantileRefusesP99Below1000Samples(t *testing.T) {
	if _, err := checkedQuantile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted; only 9 lie beyond it")
	}
	v, err := checkedQuantile(samples(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
}

func TestTailQuantilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, v, ok := tailQuantile(samples(tc.n))
		if q != tc.want || ok != tc.ok {
			t.Errorf("n=%d: picked p%g (ok %t), want p%g (ok %t)", tc.n, 100*q, ok, 100*tc.want, tc.ok)
			continue
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d: p%g = %v has only %d samples beyond it", tc.n, 100*q, v, beyond(tc.n, q))
		}
	}
}

func TestMeanBeyondAveragesTheSlowestShare(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{samples(100), 0.95, 98},  // 96..100
		{samples(300), 0.95, 293}, // 286..300
		{samples(10), 0.95, 10},   // none beyond p95: the largest
		{nil, 0.95, 0},
	} {
		if got := meanBeyond(tc.in, tc.q); got != tc.want {
			t.Errorf("meanBeyond(%d samples, %g) = %v, want %v", len(tc.in), tc.q, got, tc.want)
		}
	}
	// Sixty problems, six of them slow, repeated for four to six passes:
	// whatever the pass count, the slowest 5% are exactly the samples of
	// the three slowest problems.
	for passes := 4; passes <= 6; passes++ {
		var lat []float64
		for p := 0; p < passes; p++ {
			lat = append(lat, 300, 400, 600, 800, 1000, 1300)
			for i := 0; i < 54; i++ {
				lat = append(lat, 5)
			}
		}
		if got, want := meanBeyond(sortedCopy(lat), 0.95), (800+1000+1300)/3.0; math.Abs(got-want) > 1e-9 {
			t.Errorf("%d passes: mean of the slowest 5%% = %v, want %v", passes, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{samples(10), 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
