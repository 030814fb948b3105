package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: with fewer, one outlier moves the value.
const minBeyond = 10

// tailQuantiles are the percentiles tailQuantile chooses from, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// beyond counts the samples of an n-sample set that lie above its
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	return n - max(rank, 1)
}

// checkedQuantile is quantile, refused when fewer than minBeyond samples
// lie beyond it (so p99 needs at least 1,000 samples).
func checkedQuantile(sorted []float64, q float64) (float64, error) {
	if b := beyond(len(sorted), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, len(sorted), b, minBeyond)
	}
	return quantile(sorted, q), nil
}

// meanBeyond is the mean of the samples of an ascending slice that lie
// above its nearest-rank q-quantile (the largest sample when none does).
func meanBeyond(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	n := max(1, beyond(len(sorted), q))
	return mean(sorted[len(sorted)-n:])
}

// tailQuantile picks the highest percentile with at least minBeyond
// samples beyond it; ok is false when not even the median qualifies.
func tailQuantile(sorted []float64) (q, v float64, ok bool) {
	for _, q := range tailQuantiles {
		if v, err := checkedQuantile(sorted, q); err == nil {
			return q, v, true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(values, n=4) computes them (its
// default exclusive method), which is how run-to-run spread is judged.
// Fewer than two values give that value (or zeros) for all three.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logs float64
	for _, v := range vals {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vals)))
}

// sum adds vals up.
func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// mean is the arithmetic mean (0 when empty).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}
