package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"example.com/scar/internal/eval"
)

// This file scales the per-window search to large packages with the
// evolutionary algorithm of Section V-D (6x6 experiment: population 10,
// 4 generations). The genome follows the paper's scheduling encoding
// (Figure 5): per model, the segmentation split points, plus the subtree
// root chiplet and a path-construction preference seed that together
// determine the chiplet mapping.

// The GA's hyperparameters: the paper's population and generation count,
// the per-gene mutation probability, and the number of best genomes
// carried over unchanged into each generation.
const (
	gaPopulation  = 10
	gaGenerations = 4
	gaMutation    = 0.15
	gaElite       = 2
)

// SearchMode selects the per-window search strategy.
type SearchMode int

const (
	// SearchBruteForce is the bounded exhaustive tree search (the
	// paper's 3x3 configuration).
	SearchBruteForce SearchMode = iota
	// SearchEvolutionary is the GA of Section V-D (for 6x6 and larger).
	SearchEvolutionary
)

// evoGenome describes the gene layout for one window.
type evoGenome struct {
	active []int        // model indices
	ranges []layerRange // per active model
	spans  []int        // gene j takes values in [0, spans[j])
	// cutsAt[i] is the gene offset of model i's cut genes; rootAt[i]
	// and seedAt[i] locate its mapping genes.
	cutsAt []int
	rootAt []int
	seedAt []int
	// order lists the active models by descending allocation (stable),
	// the order decode maps them in.
	order []int
}

func buildEvoGenome(active []int, ranges []layerRange, allocs []int, chiplets int) evoGenome {
	g := evoGenome{active: active, ranges: ranges}
	for i := range active {
		l := ranges[i].numLayers()
		nCuts := allocs[i] - 1
		if nCuts > l-1 {
			nCuts = l - 1
		}
		if nCuts < 0 {
			nCuts = 0
		}
		g.cutsAt = append(g.cutsAt, len(g.spans))
		for c := 0; c < nCuts; c++ {
			g.spans = append(g.spans, l-1)
		}
		g.rootAt = append(g.rootAt, len(g.spans))
		g.spans = append(g.spans, chiplets)
		g.seedAt = append(g.seedAt, len(g.spans))
		g.spans = append(g.spans, 256)
		g.order = append(g.order, i)
	}
	// Constrained subtrees claim chiplets first, mirroring the tree
	// search.
	slices.SortStableFunc(g.order, func(a, b int) int { return cmp.Compare(allocs[b], allocs[a]) })
	return g
}

// decodeBuf is decode's reusable state: one per pool worker, so a warm
// decode allocates nothing. The segments decode returns live in segs
// until the next call.
type decodeBuf struct {
	used []uint64 // bitset of the chiplets taken, laid out as next's rows
	ends []int
	path []int
	segs []eval.Segment
}

// decode turns a genome into window segments, or ok=false when the
// mapping is infeasible (occupied root or dead-end path). next is the
// package's adjacency as successor bitsets (see successors); the
// segments are buf's and valid until its next use.
//
//scar:hotpath
func (g evoGenome) decode(genes []int, next [][]uint64, buf *decodeBuf) ([]eval.Segment, bool) {
	w := words(len(next))
	if cap(buf.used) < w {
		buf.used = make([]uint64, w) //scar:hotalloc buffer growth: amortized to zero once the worker has decoded on the package
	}
	buf.used = buf.used[:w]
	clear(buf.used)
	buf.segs = buf.segs[:0]
	for _, i := range g.order {
		l := g.ranges[i].numLayers()
		// Cuts at or past the last layer are dropped and duplicate cuts
		// collapse: the segment ends are the sorted distinct cuts.
		ends := buf.ends[:0]
		for _, v := range genes[g.cutsAt[i]:g.rootAt[i]] {
			if v < l-1 {
				ends = append(ends, v) //scar:hotalloc buffer growth: amortized to zero once the worker has seen the most cut genes
			}
		}
		slices.Sort(ends)
		ends = append(slices.Compact(ends), l-1) //scar:hotalloc buffer growth: amortized as above
		buf.ends = ends

		path, ok := greedyPath(next, genes[g.rootAt[i]], len(ends), buf.used, genes[g.seedAt[i]], buf.path)
		buf.path = path
		if !ok {
			return nil, false
		}
		plan := modelPlan{model: g.active[i], r: g.ranges[i], ends: ends}
		for q, c := range path {
			buf.segs = append(buf.segs, plan.segmentAt(q, c)) //scar:hotalloc buffer growth: amortized to zero once the worker has decoded the largest window
		}
	}
	return buf.segs, true
}

// greedyPath walks the adjacency from root for length nodes, choosing at
// each step the unused neighbor ranked by a seed-permuted preference,
// the lowest chiplet on ties; ok=false on a dead end or occupied root.
// next holds the adjacency as successor bitsets and used the taken
// chiplets, laid out as next's rows. On success the path's chiplets are
// marked in used; on failure used is left as it was. The path is built
// in path's backing array.
//
//scar:hotpath
func greedyPath(next [][]uint64, root, length int, used []uint64, seed int, path []int) ([]int, bool) {
	path = path[:0]
	if used[root>>6]&(1<<(root&63)) != 0 {
		return path, false
	}
	path = append(path, root) //scar:hotalloc buffer growth: amortized to zero once the caller's buffer has held the longest path
	used[root>>6] |= 1 << (root & 63)
	cur := root
	for len(path) < length {
		best := -1
		bestKey := math.MaxInt64
		// Free neighbors come in ascending order, so a strict < keeps
		// the lowest chiplet among equal keys.
		for w, row := range next[cur] {
			for free := row &^ used[w]; free != 0; free &= free - 1 {
				c := w<<6 | bits.TrailingZeros64(free)
				if key := (c*131 + seed*31) % 251; key < bestKey {
					bestKey = key
					best = c
				}
			}
		}
		if best < 0 {
			for _, c := range path {
				used[c>>6] &^= 1 << (c & 63)
			}
			return path, false
		}
		path = append(path, best) //scar:hotalloc buffer growth: amortized as above
		used[best>>6] |= 1 << (best & 63)
		cur = best
	}
	return path, true
}

// evolve runs the GA over genomes whose gene j takes values in
// [0, spans[j]): seeded random initialization, tournament selection,
// uniform crossover, per-gene mutation and elitism. fitness scores a
// genome, lower is better, +Inf marking an infeasible one. stop, when
// non-nil, is polled before every evaluation but the first: once it
// reports true the run returns its incumbent with stopped set. best is
// nil when no feasible genome was found.
func evolve(spans []int, fitness func(genes []int) float64, stop func() bool, seed int64) (best []int, bestFit float64, stopped bool) {
	var rng stream
	rng.seed(seed)
	type indiv struct {
		genes []int
		fit   float64
	}
	bestFit = math.Inf(1)
	evals := 0
	halt := func() bool {
		stopped = stop != nil && evals > 0 && stop()
		return stopped
	}
	score := func(genes []int) indiv {
		evals++
		ind := indiv{genes, fitness(genes)}
		if ind.fit < bestFit {
			best, bestFit = slices.Clone(genes), ind.fit
		}
		return ind
	}
	pop := make([]indiv, 0, gaPopulation)
	for len(pop) < gaPopulation && !halt() {
		g := make([]int, len(spans))
		for j, n := range spans {
			g[j] = rng.intn(n)
		}
		pop = append(pop, score(g))
	}
	tournament := func() indiv {
		a, b := pop[rng.intn(len(pop))], pop[rng.intn(len(pop))]
		if a.fit <= b.fit {
			return a
		}
		return b
	}
	for gen := 0; gen < gaGenerations && !stopped; gen++ {
		slices.SortStableFunc(pop, func(a, b indiv) int { return cmp.Compare(a.fit, b.fit) })
		next := append(make([]indiv, 0, gaPopulation), pop[:min(gaElite, len(pop))]...)
		for len(next) < gaPopulation && !halt() {
			pa, pb := tournament(), tournament()
			child := make([]int, len(spans))
			for j := range child {
				if rng.intn(2) == 0 {
					child[j] = pa.genes[j]
				} else {
					child[j] = pb.genes[j]
				}
				if rng.float64() < gaMutation {
					child[j] = rng.intn(spans[j])
				}
			}
			next = append(next, score(child))
		}
		pop = next
	}
	return best, bestFit, stopped
}

// searchWindowEvo is the evolutionary counterpart of searchWindow: PROV
// provisions nodes, then the GA explores segmentation and mapping
// together. Falls back to the brute-force tree search when the GA cannot
// find a feasible genome. self is the calling task's worker id (the GA is
// serial within the task, so its fitness evaluations share the worker's
// scratch); seed is the window's deterministic RNG root (mixSeed of the
// run seed with the window's ranges), so concurrent windows run
// independent, reproducible GAs. leaves is the search's leaf cache,
// shared with the fallback, since duplicate genomes and the fallback's
// placements can score one leaf twice.
func (s *Scheduler) searchWindowEvo(r *run, self int, w windowAssignment, seed int64, leaves *windowCache) windowOutcome {
	active, weights, layers := r.activeModels(w)
	alloc, err := provisionRule(weights, layers, r.m.NumChiplets(), r.opts.NodeAllocCap)
	if err != nil {
		return windowOutcome{err: err}
	}
	ranges := make([]layerRange, len(active))
	for i, mi := range active {
		ranges[i] = w[mi]
	}

	buf := &r.workers[self].decode
	genome := buildEvoGenome(active, ranges, alloc, r.m.NumChiplets())
	evals := 0
	fitness := func(genes []int) float64 {
		segs, ok := genome.decode(genes, r.adjNext, buf)
		if !ok {
			return math.Inf(1)
		}
		evals++
		return r.obj.windowScore(r.window(self, leaves, segs, nil))
	}
	best, _, stopped := evolve(genome.spans, fitness, r.searchStop, mixSeed(seed, 3))
	var out windowOutcome
	if best != nil {
		// best scored below +Inf, so it decodes; its segments are the
		// only ones that outlive the worker's buffer.
		segs, _ := genome.decode(best, r.adjNext, buf)
		out.segs = slices.Clone(segs)
	} else {
		// GA found nothing feasible: fall back to the tree search.
		out = s.searchWindow(r, self, w, seed, leaves)
	}
	out.evals += evals
	out.aborted = out.aborted || stopped
	return out
}
