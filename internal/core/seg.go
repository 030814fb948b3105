package core

import (
	"cmp"
	"slices"

	"example.com/scar/internal/mcm"
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

// segmentCandidates returns the k best segmentations of a model's window
// range into at most maxSegs segments, best first; batch is the model's
// batch size. When the space C(L-1, s-1) summed over s exceeds
// opts.SegEnumLimit, it falls back to cost-balanced splits plus random
// samples drawn from rng, which it seeds with seed first (the
// bounded-search analogue of the paper's complexity management); the
// enumerated branch never draws.
//
// Candidates are scored as they are generated and stream into a k-slot
// list ordered by score, ties in generation order, so the list is exactly
// the first k of a stable sort of every deduplicated candidate. Only kept
// candidates are copied.
func segmentCandidates(
	batch int, r layerRange, maxSegs, k int,
	expLat, expEnergy, outBytes, weightBytes []float64, // per-layer, window-relative is [r.First..r.Last]
	m *mcm.MCM, obj Objective, opts Options, rng *stream, seed int64,
) []segCandidate {
	l := r.numLayers()
	if maxSegs > l {
		maxSegs = l
	}
	if maxSegs < 1 {
		maxSegs = 1
	}

	lat := expLat[r.First : r.Last+1]
	xfer := outBytes[r.First : r.Last+1]
	weights := weightBytes[r.First : r.Last+1]
	var energy float64
	for _, e := range expEnergy[r.First : r.Last+1] {
		energy += e
	}

	// The top-k never holds more than the candidates generated.
	space := segSpaceSize(l, maxSegs, opts.SegEnumLimit)
	enumerate := space <= opts.SegEnumLimit
	if !enumerate {
		space = 2*maxSegs + max(opts.SegSamples, 0)
	}
	top := newSegTopK(min(k, space), maxSegs)
	offer := func(ends []int) {
		top.offer(ends, scoreSegmentation(batch, ends, lat, energy, xfer, weights, m, obj))
	}
	if enumerate {
		enumerateSegmentations(l, maxSegs, offer)
	} else {
		rng.seed(seed)
		sampledSegmentations(l, maxSegs, lat, opts.SegSamples, rng, offer)
	}
	return top.kept
}

// segTopK keeps the k lowest-scoring distinct segmentations offered to it,
// sorted by cmp.Compare on the score with ties in offer order. Each kept
// candidate owns a maxSegs-capacity slot of one backing array, and an
// evicted candidate's slot is reused by the one that evicts it.
type segTopK struct {
	kept    []segCandidate
	backing []int
	maxSegs int
}

func newSegTopK(k, maxSegs int) segTopK {
	return segTopK{
		kept:    make([]segCandidate, 0, k),
		backing: make([]int, k*maxSegs),
		maxSegs: maxSegs,
	}
}

// offer considers one candidate; ends is copied if kept. A candidate equal
// to a kept one is dropped. That is all the deduplication a stable top-k
// needs: a repeat of a candidate that is not kept ties its first
// occurrence on score and comes later, and k kept entries already precede
// that first occurrence, so the repeat is rejected on score alone.
func (t *segTopK) offer(ends []int, score float64) {
	n := len(t.kept)
	full := n == cap(t.kept)
	if full && cmp.Compare(score, t.kept[n-1].score) >= 0 {
		return
	}
	for _, c := range t.kept {
		if slices.Equal(c.ends, ends) {
			return
		}
	}
	at := n
	for at > 0 && cmp.Compare(score, t.kept[at-1].score) < 0 {
		at--
	}
	var slot []int
	if full {
		slot = t.kept[n-1].ends[:0]
	} else {
		slot = t.backing[n*t.maxSegs : n*t.maxSegs : (n+1)*t.maxSegs]
		t.kept = t.kept[:n+1]
	}
	copy(t.kept[at+1:], t.kept[at:len(t.kept)-1])
	t.kept[at] = segCandidate{ends: append(slot, ends...), score: score}
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

// enumerateSegmentations visits every split of l layers into 1..maxSegs
// contiguous segments as an end-offset vector, by segment count and then
// in lexicographic order of the cuts. visit must not retain the vector,
// which is rewritten in place.
func enumerateSegmentations(l, maxSegs int, visit func(ends []int)) {
	ends := make([]int, maxSegs)
	for s := 1; s <= maxSegs; s++ {
		e := ends[:s]
		for i := range s - 1 {
			e[i] = i
		}
		e[s-1] = l - 1
		for {
			visit(e)
			// Advance the rightmost cut that still has room, then pack
			// the cuts after it against it. Cut i is at most l-s+i.
			i := s - 2
			for i >= 0 && e[i] == l-s+i {
				i--
			}
			if i < 0 {
				break
			}
			e[i]++
			for j := i + 1; j < s-1; j++ {
				e[j] = e[j-1] + 1
			}
		}
	}
}

// sampledSegmentations visits cost-balanced splits for each segment
// count, then random cut sets drawn from rng. It visits repeats too;
// segTopK drops them. visit must not retain the vector.
func sampledSegmentations(l, maxSegs int, lat []float64, samples int, rng *stream, visit func(ends []int)) {
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
		visit(append(ends, l-1))
		// Balance by layer count.
		ends = ends[:0]
		for q := 1; q < s; q++ {
			e := l*q/s - 1
			if e >= 0 && e < l-1 && (len(ends) == 0 || e > ends[len(ends)-1]) {
				ends = append(ends, e)
			}
		}
		visit(append(ends, l-1))
	}
	for i := 0; i < samples; i++ {
		// s-1 distinct random cuts, drawn until that many are distinct.
		s := 1 + rng.intn(maxSegs)
		ends = ends[:0]
		for len(ends) < s-1 {
			if c := rng.intn(l - 1); !slices.Contains(ends, c) {
				ends = append(ends, c)
			}
		}
		slices.Sort(ends)
		visit(append(ends, l-1))
	}
}

// scoreSegmentation is Heuristic 1's independent per-model proxy: a
// pipeline estimate over expected (dataflow-averaged) costs, in the
// fill-and-drain shape of the evaluator's model pass. Stage latencies are
// the per-segment expected sums, and a stage's pass takes its latency
// over the batch. The first pass fills the pipeline: a stage starts it
// once its input has arrived and its own weights are loaded from DRAM,
// so upstream passes hide a later stage's load. The bottleneck then
// repeats for the other passes: it dominates at high batch, the fill at
// batch 1, where cutting a weight-heavy model is what overlaps its
// weight loads. Each cut adds a NoP transfer of the boundary activation,
// whose size the window-relative outBytes holds per layer; weightBytes
// holds each layer's weight size. energy is the window's expected
// energy, the same for every candidate.
func scoreSegmentation(
	modelBatch int, ends []int,
	lat []float64, energy float64, outBytes, weightBytes []float64, m *mcm.MCM, obj Objective,
) float64 {
	batch := float64(modelBatch)
	var fill, maxStage, xferPJ float64
	start := 0
	for _, end := range ends {
		var stage, weights float64
		for i := start; i <= end; i++ {
			stage += lat[i]
			weights += weightBytes[i]
		}
		fill = max(fill, weights/m.OffchipBandwidth) + stage/batch
		maxStage = max(maxStage, stage)
		if end < len(lat)-1 {
			bytes := outBytes[end]
			fill += bytes/m.NoPBandwidth + m.NoPHopLatency
			xferPJ += bytes * m.NoPEnergyPerByte
		}
		start = end + 1
	}
	pipeLat := fill + (batch-1)*maxStage/batch
	return obj.proxy(pipeLat, energy+xferPJ)
}
