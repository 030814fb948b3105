package core

import (
	"cmp"
	"math/rand"
	"slices"

	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// This file is the SEG engine (Section IV-C): it partitions a model's
// window layers into layer segments. A candidate is a sequence of split
// points; the engine scores candidates for each model independently
// (Heuristic 1) with a pipeline proxy over expected costs, and the
// scheduler keeps the top-k per model before the combinatorial SCHED
// step.

// segCandidate is one segmentation of a model's window layers: ends[q] is
// the (window-relative, inclusive) last-layer offset of segment q; the
// final entry is always L-1.
type segCandidate struct {
	ends  []int
	score float64
}

func (c segCandidate) numSegments() int { return len(c.ends) }

// segmentCandidates enumerates and scores segmentations of a model's
// window range into at most maxSegs segments; batch is the model's batch
// size. When the space C(L-1, s-1) summed over s exceeds
// opts.SegEnumLimit, it falls back to cost-balanced splits plus seeded
// random samples (the bounded-search analogue of the paper's complexity
// management).
func segmentCandidates(
	batch int, r layerRange, maxSegs int,
	expLat, expEnergy, outBytes []float64, // per-layer, window-relative is [r.First..r.Last]
	m *mcm.MCM, obj Objective, opts Options, rng *rand.Rand,
) []segCandidate {
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

	spaceSize := segSpaceSize(l, maxSegs, opts.SegEnumLimit)
	var cands [][]int
	if spaceSize <= opts.SegEnumLimit {
		cands = enumerateSegmentations(l, maxSegs)
	} else {
		cands = sampledSegmentations(l, maxSegs, lat, opts.SegSamples, rng)
	}

	out := make([]segCandidate, 0, len(cands))
	for _, ends := range cands {
		score := scoreSegmentation(batch, ends, lat, eng, xfer, m, obj)
		out = append(out, segCandidate{ends: ends, score: score})
	}
	slices.SortStableFunc(out, func(a, b segCandidate) int { return cmp.Compare(a.score, b.score) })
	return out
}

// segSpaceSize computes sum_{s=1..maxSegs} C(l-1, s-1), saturating at
// limit+1 to avoid overflow.
func segSpaceSize(l, maxSegs, limit int) int {
	total := 0
	for s := 1; s <= maxSegs; s++ {
		c := 1
		for i := 0; i < s-1; i++ {
			c = c * (l - 1 - i) / (i + 1)
			if c > limit {
				return limit + 1
			}
		}
		total += c
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// enumerateSegmentations lists every split of l layers into 1..maxSegs
// contiguous segments as end-offset vectors. The vectors share one
// backing array.
func enumerateSegmentations(l, maxSegs int) [][]int {
	var flat, offs []int
	ends := make([]int, 0, maxSegs)
	var rec func(start, segsLeft int)
	rec = func(start, segsLeft int) {
		if segsLeft == 1 {
			flat = append(append(flat, ends...), l-1)
			offs = append(offs, len(flat))
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
	out := make([][]int, len(offs))
	start := 0
	for i, end := range offs {
		out[i] = flat[start:end:end]
		start = end
	}
	return out
}

// sampledSegmentations produces cost-balanced splits for each segment
// count plus seeded random cut sets, deduplicated in first-seen order.
func sampledSegmentations(l, maxSegs int, lat []float64, samples int, rng *rand.Rand) [][]int {
	seen := map[string]bool{}
	var out [][]int
	var key []byte
	add := func(ends []int) {
		key = appendIntsKey(key[:0], ends)
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, slices.Clone(ends))
		}
	}
	var total float64
	for _, v := range lat {
		total += v
	}
	ends := make([]int, 0, maxSegs)
	for s := 1; s <= maxSegs; s++ {
		// Balance by expected latency: cut when the running sum
		// crosses each i/s quantile.
		ends = ends[:0]
		target := total / float64(s)
		var acc float64
		for i := 0; i < l && len(ends) < s-1; i++ {
			acc += lat[i]
			if acc >= target*float64(len(ends)+1) && i < l-1 {
				ends = append(ends, i)
			}
		}
		add(append(ends, l-1))
		// Balance by layer count.
		ends = ends[:0]
		for q := 1; q < s; q++ {
			e := l*q/s - 1
			if e >= 0 && e < l-1 && (len(ends) == 0 || e > ends[len(ends)-1]) {
				ends = append(ends, e)
			}
		}
		add(append(ends, l-1))
	}
	for i := 0; i < samples; i++ {
		// s-1 distinct random cuts, drawn until that many are distinct.
		s := 1 + rng.Intn(maxSegs)
		ends = ends[:0]
		for len(ends) < s-1 {
			if c := rng.Intn(l - 1); !slices.Contains(ends, c) {
				ends = append(ends, c)
			}
		}
		slices.Sort(ends)
		add(append(ends, l-1))
	}
	return out
}

// scoreSegmentation is Heuristic 1's independent per-model proxy: a
// pipeline estimate over expected (dataflow-averaged) costs. Stage
// latencies are the per-segment expected sums; the pipeline bottleneck
// dominates at high batch while the fill time dominates at batch 1; each
// cut adds a NoP transfer of the boundary activation, whose size the
// window-relative outBytes holds per layer.
func scoreSegmentation(
	modelBatch int, ends []int,
	lat, eng, outBytes []float64, m *mcm.MCM, obj Objective,
) float64 {
	batch := float64(modelBatch)
	var sumStages, maxStage, xferLat, xferPJ float64
	start := 0
	for _, end := range ends {
		var stage float64
		for i := start; i <= end; i++ {
			stage += lat[i]
		}
		sumStages += stage
		if stage > maxStage {
			maxStage = stage
		}
		if end < len(lat)-1 {
			bytes := outBytes[end]
			xferLat += bytes/m.NoPBandwidth + m.NoPHopLatency
			xferPJ += bytes * m.NoPEnergyPerByte
		}
		start = end + 1
	}
	// Pipeline proxy: fill with the full sum once, then the bottleneck
	// amortized over the batch.
	pipeLat := maxStage + (sumStages-maxStage)/batch + xferLat
	var totalPJ float64
	for _, e := range eng {
		totalPJ += e
	}
	totalPJ += xferPJ
	return obj.proxy(pipeLat, totalPJ)
}

// outputBytes tabulates every layer's output activation size at its
// model's batch, as float64, once per run: the SEG proxy charges one for
// every cut of every candidate it scores.
func outputBytes(sc *workload.Scenario) [][]float64 {
	out := make([][]float64, len(sc.Models))
	for mi, model := range sc.Models {
		out[mi] = make([]float64, len(model.Layers))
		for li, l := range model.Layers {
			out[mi][li] = float64(l.WithBatch(model.Batch).OutputBytes())
		}
	}
	return out
}
