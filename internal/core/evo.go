package core

import (
	"cmp"
	"math"
	"slices"

	"example.com/scar/internal/eval"
	"example.com/scar/internal/search"
)

// This file scales the per-window search to large packages with the
// evolutionary algorithm of Section V-D (6x6 experiment: population 10,
// 4 generations). The genome follows the paper's scheduling encoding
// (Figure 5): per model, the segmentation split points, plus the subtree
// root chiplet and a path-construction preference seed that together
// determine the chiplet mapping.

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
	bounds []search.IntRange
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
		g.cutsAt = append(g.cutsAt, len(g.bounds))
		for c := 0; c < nCuts; c++ {
			g.bounds = append(g.bounds, search.IntRange{Min: 0, Max: l - 2})
		}
		g.rootAt = append(g.rootAt, len(g.bounds))
		g.bounds = append(g.bounds, search.IntRange{Min: 0, Max: chiplets - 1})
		g.seedAt = append(g.seedAt, len(g.bounds))
		g.bounds = append(g.bounds, search.IntRange{Min: 0, Max: 255})
		g.order = append(g.order, i)
	}
	// Constrained subtrees claim chiplets first, mirroring the tree
	// search.
	slices.SortStableFunc(g.order, func(a, b int) int { return cmp.Compare(allocs[b], allocs[a]) })
	return g
}

// decode turns a genome into window segments, or ok=false when the
// mapping is infeasible (occupied root or dead-end path).
func (g evoGenome) decode(genes []int, m intGraph) ([]eval.Segment, bool) {
	used := make([]bool, m.n)
	var segs []eval.Segment
	var ends []int
	for _, i := range g.order {
		l := g.ranges[i].numLayers()
		// Cuts at or past the last layer are dropped and duplicate cuts
		// collapse: the segment ends are the sorted distinct cuts.
		ends = ends[:0]
		for _, v := range genes[g.cutsAt[i]:g.rootAt[i]] {
			if v < l-1 {
				ends = append(ends, v)
			}
		}
		slices.Sort(ends)
		ends = append(slices.Compact(ends), l-1)

		root := genes[g.rootAt[i]]
		seed := genes[g.seedAt[i]]
		path, ok := greedyPath(m, root, len(ends), used, seed)
		if !ok {
			return nil, false
		}
		plan := modelPlan{model: g.active[i], r: g.ranges[i], ends: ends}
		for q, c := range path {
			used[c] = true
			segs = append(segs, plan.segmentAt(q, c))
		}
	}
	return segs, true
}

// intGraph is a minimal adjacency view of the package.
type intGraph struct {
	n   int
	adj [][]bool
}

// greedyPath walks the adjacency from root for length nodes, choosing at
// each step the unused neighbor ranked by a seed-permuted preference;
// ok=false on a dead end or occupied root. used is marked along the walk
// and restored before returning.
func greedyPath(m intGraph, root, length int, used []bool, seed int) ([]int, bool) {
	if used[root] {
		return nil, false
	}
	path := make([]int, 1, length)
	path[0] = root
	used[root] = true
	defer func() {
		for _, c := range path {
			used[c] = false
		}
	}()
	cur := root
	for len(path) < length {
		best := -1
		bestKey := math.MaxInt64
		for next := 0; next < m.n; next++ {
			if !m.adj[cur][next] || used[next] {
				continue
			}
			key := (next*131 + seed*31) % 251
			if key < bestKey || (key == bestKey && next < best) {
				bestKey = key
				best = next
			}
		}
		if best < 0 {
			return nil, false
		}
		path = append(path, best)
		used[best] = true
		cur = best
	}
	return path, true
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
	var active []int
	var ranges []layerRange
	var weights []float64
	var layerCounts []int
	for mi, rg := range w {
		if rg.empty() {
			continue
		}
		active = append(active, mi)
		ranges = append(ranges, rg)
		var lat, eng float64
		for li := rg.First; li <= rg.Last; li++ {
			lat += r.expLat[mi][li]
			eng += r.expE[mi][li]
		}
		weights = append(weights, r.obj.proxy(lat, eng))
		layerCounts = append(layerCounts, rg.numLayers())
	}
	alloc, err := provisionRule(weights, layerCounts, r.m.NumChiplets(), r.opts.NodeAllocCap)
	if err != nil {
		return windowOutcome{err: err}
	}

	graph := intGraph{n: r.m.NumChiplets(), adj: r.adj}
	genome := buildEvoGenome(active, ranges, alloc, r.m.NumChiplets())
	evals := 0
	fitness := func(genes []int) float64 {
		segs, ok := genome.decode(genes, graph)
		if !ok {
			return math.Inf(1)
		}
		evals++
		return r.obj.windowScore(r.window(self, leaves, segs, nil))
	}
	gaOpts := r.opts.Evo
	gaOpts.Seed = mixSeed(seed, 3)
	res, err := search.Run(search.Problem{
		Bounds:  genome.bounds,
		Fitness: fitness,
		Stop:    r.searchStop,
	}, gaOpts)
	var out windowOutcome
	ok := err == nil && !math.IsInf(res.BestFitness, 1)
	if ok {
		out.segs, ok = genome.decode(res.Best, graph)
	}
	if !ok {
		// GA found nothing feasible: fall back to the tree search.
		out = s.searchWindow(r, self, w, seed, leaves)
	}
	out.evals += evals
	out.aborted = out.aborted || res.Stopped
	return out
}
