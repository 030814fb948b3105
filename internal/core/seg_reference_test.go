package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
)

// This file keeps the SEG engine's earlier algorithm as a test-only
// reference for segmentCandidates: every candidate is materialized,
// sampled ones are deduplicated through a map, all are scored (summing
// the window energy again per candidate), stably sorted by score and cut
// to the first k. segmentCandidates streams candidates into a top-k
// instead, and must return exactly the same list and leave the RNG at the
// same stream position.

// referenceSegmentCandidates has segmentCandidates' contract and is its
// reference. Like the scheduler before it, it seeds rng whether or not
// the enumerated branch draws.
func referenceSegmentCandidates(
	batch int, r layerRange, maxSegs, k int,
	expLat, expEnergy, outBytes, weightBytes []float64,
	m *mcm.MCM, obj Objective, opts Options, rng *stream, seed int64,
) []segCandidate {
	rng.seed(seed)
	l := r.numLayers()
	if maxSegs > l {
		maxSegs = l
	}
	if maxSegs < 1 {
		maxSegs = 1
	}
	lat := expLat[r.First : r.Last+1]
	eng := expEnergy[r.First : r.Last+1]
	xfer := outBytes[r.First : r.Last+1]
	wgt := weightBytes[r.First : r.Last+1]

	var cands [][]int
	if segSpaceSize(l, maxSegs, opts.SegEnumLimit) <= opts.SegEnumLimit {
		cands = referenceEnumerateSegmentations(l, maxSegs)
	} else {
		cands = referenceSampledSegmentations(l, maxSegs, lat, opts.SegSamples, rng)
	}
	out := make([]segCandidate, 0, len(cands))
	for _, ends := range cands {
		out = append(out, segCandidate{ends: ends, score: referenceScoreSegmentation(batch, ends, lat, eng, xfer, wgt, m, obj)})
	}
	slices.SortStableFunc(out, func(a, b segCandidate) int { return cmp.Compare(a.score, b.score) })
	return out[:min(k, len(out))]
}

// referenceEnumerateSegmentations lists every split of l layers into
// 1..maxSegs contiguous segments, recursively.
func referenceEnumerateSegmentations(l, maxSegs int) [][]int {
	var out [][]int
	var ends []int
	var rec func(start, segsLeft int)
	rec = func(start, segsLeft int) {
		if segsLeft == 1 {
			out = append(out, append(slices.Clone(ends), l-1))
			return
		}
		for end := start; end < l-1; end++ {
			ends = append(ends, end)
			rec(end+1, segsLeft-1)
			ends = ends[:len(ends)-1]
		}
	}
	for s := 1; s <= maxSegs; s++ {
		rec(0, s)
	}
	return out
}

// referenceSampledSegmentations produces the cost-balanced splits and the
// random cut sets, deduplicated through a map in first-seen order.
func referenceSampledSegmentations(l, maxSegs int, lat []float64, samples int, rng *stream) [][]int {
	seen := map[string]bool{}
	var out [][]int
	add := func(ends []int) {
		k := string(appendIntsKey(nil, ends))
		if !seen[k] {
			seen[k] = true
			out = append(out, slices.Clone(ends))
		}
	}
	var total float64
	for _, v := range lat {
		total += v
	}
	for s := 1; s <= maxSegs; s++ {
		var ends []int
		target := total / float64(s)
		var acc float64
		for i := 0; i < l && len(ends) < s-1; i++ {
			acc += lat[i]
			if acc >= target*float64(len(ends)+1) && i < l-1 {
				ends = append(ends, i)
			}
		}
		add(append(ends, l-1))
		ends = nil
		for q := 1; q < s; q++ {
			e := l*q/s - 1
			if e >= 0 && e < l-1 && (len(ends) == 0 || e > ends[len(ends)-1]) {
				ends = append(ends, e)
			}
		}
		add(append(ends, l-1))
	}
	for i := 0; i < samples; i++ {
		s := 1 + rng.intn(maxSegs)
		var ends []int
		for len(ends) < s-1 {
			if c := rng.intn(l - 1); !slices.Contains(ends, c) {
				ends = append(ends, c)
			}
		}
		slices.Sort(ends)
		add(append(ends, l-1))
	}
	return out
}

// referenceScoreSegmentation is scoreSegmentation with the window energy
// summed inside, once per candidate.
func referenceScoreSegmentation(
	modelBatch int, ends []int,
	lat, eng, outBytes, weightBytes []float64, m *mcm.MCM, obj Objective,
) float64 {
	batch := float64(modelBatch)
	// Stage sums first, then the fill-and-drain recurrence over them.
	var stages, loads, xfers []float64
	var xferPJ float64
	start := 0
	for _, end := range ends {
		var stage, weights float64
		for i := start; i <= end; i++ {
			stage += lat[i]
			weights += weightBytes[i]
		}
		stages = append(stages, stage)
		loads = append(loads, weights/m.OffchipBandwidth)
		if end < len(lat)-1 {
			bytes := outBytes[end]
			xfers = append(xfers, bytes/m.NoPBandwidth+m.NoPHopLatency)
			xferPJ += bytes * m.NoPEnergyPerByte
		}
		start = end + 1
	}
	var fill float64
	for q, stage := range stages {
		fill = math.Max(fill, loads[q]) + stage/batch
		if q < len(xfers) {
			fill += xfers[q]
		}
	}
	pipeLat := fill + (batch-1)*slices.Max(stages)/batch
	var totalPJ float64
	for _, e := range eng {
		totalPJ += e
	}
	totalPJ += xferPJ
	return obj.proxy(pipeLat, totalPJ)
}

// TestSegReference: over random cases segmentCandidates returns the
// reference's top-k bit for bit and leaves its RNG where the reference
// leaves it, or untouched when it enumerates. The cases cover both
// branches, k from 1 to 6, tie-heavy integer costs (many candidates share
// a score, so the order of ties decides the list) and short ranges
// sampled many times (most samples repeat an earlier candidate).
func TestSegReference(t *testing.T) {
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	objectives := []Objective{LatencyObjective(), EnergyObjective(), EDPObjective()}
	rng := rand.New(rand.NewSource(11))
	branches := map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		kind := trial % 3
		var l int
		switch kind {
		case 2: // duplicate-heavy: short ranges
			l = 2 + rng.Intn(5)
		default:
			l = 1 + rng.Intn(40)
		}
		offset := rng.Intn(4)
		n := offset + l + rng.Intn(3)
		lat := make([]float64, n)
		eng := make([]float64, n)
		out := make([]float64, n)
		wgt := make([]float64, n)
		for i := range lat {
			if kind == 0 { // continuous costs
				lat[i] = rng.Float64() * 1e-3
				eng[i] = rng.Float64() * 1e6
				out[i] = float64(rng.Intn(1 << 20))
				wgt[i] = float64(rng.Intn(1 << 26))
			} else { // tie-heavy integer costs; loads of whole seconds
				lat[i] = float64(1 + rng.Intn(3))
				eng[i] = float64(1 + rng.Intn(3))
				out[i] = float64(rng.Intn(2) * 4096)
				wgt[i] = float64(rng.Intn(3)) * pkg.OffchipBandwidth
			}
		}
		opts := DefaultOptions()
		opts.SegEnumLimit = []int{0, 1, 5, 30, 300, 2000}[rng.Intn(6)]
		opts.SegSamples = rng.Intn(60)
		if kind == 2 {
			opts.SegSamples = 100 + rng.Intn(200)
		}
		maxSegs := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		batch := 1 + rng.Intn(8)
		obj := objectives[rng.Intn(len(objectives))]
		r := layerRange{First: offset, Last: offset + l - 1}
		seed, pre := rng.Int63(), rng.Int63()

		refRng, gotRng := seeded(pre), seeded(pre)
		want := referenceSegmentCandidates(batch, r, maxSegs, k, lat, eng, out, wgt, pkg, obj, opts, refRng, seed)
		got := segmentCandidates(batch, r, maxSegs, k, lat, eng, out, wgt, pkg, obj, opts, gotRng, seed)

		enumerated := segSpaceSize(l, min(maxSegs, l), opts.SegEnumLimit) <= opts.SegEnumLimit
		branches[enumerated]++
		label := fmt.Sprintf("trial %d (l %d, maxSegs %d, k %d, enum limit %d, samples %d)",
			trial, l, maxSegs, k, opts.SegEnumLimit, opts.SegSamples)
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, reference %d", label, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].ends, want[i].ends) || math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
				t.Fatalf("%s: candidate %d = %v (%v), reference %v (%v)", label, i, got[i].ends, got[i].score, want[i].ends, want[i].score)
			}
		}
		// The next draw shows the stream position: the same as the
		// reference's after sampling, the caller's own after enumerating.
		wantNext := refRng.next()
		if enumerated {
			wantNext = seeded(pre).next()
		}
		if gotNext := gotRng.next(); gotNext != wantNext {
			t.Fatalf("%s: next draw %d, want %d", label, gotNext, wantNext)
		}
	}
	if branches[true] < 500 || branches[false] < 500 {
		t.Fatalf("branch coverage enumerated %d, sampled %d; want at least 500 each", branches[true], branches[false])
	}
}
