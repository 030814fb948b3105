package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"example.com/scar/internal/eval"
)

// This file is the SCHED engine (Section IV-D): it maps layer segments
// onto physical chiplets. The search space is a forest of scheduling
// trees — every tree is identified by a tuple of subtree root chiplets
// (one per model) and every candidate schedule is a set of
// adjacency-respecting paths, one per model, pairwise disjoint (exclusive
// chiplet occupancy). A constrained DFS enumerates paths per subtree,
// constrained on the chiplets taken by preceding subtrees, exactly as in
// Figure 5.

// modelPlan is one model's segmentation choice inside a window.
type modelPlan struct {
	model int
	r     layerRange
	ends  []int // window-relative inclusive segment ends
}

func (p modelPlan) numSegments() int { return len(p.ends) }

// segmentAt returns the plan's segment q placed on the given chiplet.
func (p modelPlan) segmentAt(q, chiplet int) eval.Segment {
	first := 0
	if q > 0 {
		first = p.ends[q-1] + 1
	}
	return eval.Segment{
		Model:   p.model,
		First:   p.r.First + first,
		Last:    p.r.First + p.ends[q],
		Chiplet: chiplet,
	}
}

// treeResult is the best window schedule found by the tree search.
type treeResult struct {
	segments []eval.Segment
	score    float64
	evals    int
	found    bool
	// aborted marks a search cut short by its stop check with work
	// remaining; segments (when found) is the incumbent at that point.
	aborted bool
}

// treeSearch explores up to maxTrees scheduling trees with a total
// evaluation budget, returning the best window schedule under the
// objective. Plans are ordered internally by descending segment count so
// the most constrained subtree claims chiplets first. A path steps from a
// chiplet only to an unoccupied one of its successors, the bitset
// next[chiplet] (see successors): its interposer neighbors, or every
// chiplet under free placement (the mapping-locality ablation).
//
// The search itself is serial and self-contained — evalWin scores leaf
// windows (it must not retain the segment slice, which the search
// rewrites in place), next carries the package shape, rng is the task's
// private stream, roots the worker's root-tuple buffers (no tuple is kept
// past the return) — which is what lets the scheduler fan many tree
// searches out across workers.
//
// stop (optional) is polled after every leaf evaluation: once it reports
// true the search unwinds and returns its incumbent with aborted set.
// The first reachable leaf is always evaluated before stop is honored,
// so a cancelled search still yields a feasible mapping whenever its
// first DFS descent finds one — the anytime floor the scheduler's
// partial results build on. A nil or never-true stop leaves the search
// byte-for-byte identical to the unstoppable version.
//
// Invariant: the DFS cuts a branch only when it provably contains no
// leaf that would be evaluated. Two cuts exist. A path never steps onto a
// later model's subtree root, because that model's subtree could then not
// be planted and the branch ends without a leaf. And no step is taken
// once the tree's share, the total budget or the stop check has ended the
// search, because no further leaf would be scored. Every other branch is
// walked in ascending chiplet order, so the leaves, their order and the
// result match the plain constrained DFS of Figure 5 exactly. And every
// segment of a leaf sits on its own chiplet, since roots are reserved up
// front and every path step is marked used: the invariant incremental
// leaf scoring (pathPasses) rests on.
//
// paths, when non-nil, scores leaves incrementally (see pathPasses): the
// search resets it for its plans, and evalWin may return
// paths.window(segs) instead of evaluating the window. With nil paths
// evalWin scores every leaf in full. The scheduler runs every tree
// search incrementally, with evalWin keeping the run's counters, context
// poll and leaf cache.
func treeSearch(
	paths *pathPasses, evalWin func(segs []eval.Segment) eval.WindowEval, next [][]uint64, roots *tupleBuf,
	plans []modelPlan, obj Objective, maxTrees, budget int, rng *stream, stop func() bool,
) treeResult {
	ordered := slices.Clone(plans)
	slices.SortStableFunc(ordered, func(a, b modelPlan) int {
		return cmp.Compare(b.numSegments(), a.numSegments())
	})

	chiplets := len(next)
	tuples := rootTuples(chiplets, len(ordered), maxTrees, rng, roots)
	if len(tuples) == 0 {
		return treeResult{}
	}
	perTree := budget / len(tuples)
	if perTree < 4 {
		perTree = 4
	}

	// Every plan's segments sit at fixed offsets of segs, in plan order;
	// the walk only rewrites their chiplets.
	nsegs := 0
	for _, p := range ordered {
		nsegs += p.numSegments()
	}
	base := make([]int, len(ordered))
	segs := make([]eval.Segment, 0, nsegs)
	for k, p := range ordered {
		base[k] = len(segs)
		for q := range p.numSegments() {
			segs = append(segs, p.segmentAt(q, 0))
		}
	}
	if paths != nil {
		paths.reset(ordered)
	}
	t := treeWalk{
		evalWin: evalWin,
		obj:     obj,
		stop:    stop,
		budget:  budget,
		plans:   ordered,
		next:    next,
		used:    make([]uint64, words(chiplets)),
		segs:    segs,
		base:    base,
		res:     treeResult{score: math.Inf(1)},
	}
	for _, roots := range tuples {
		if t.res.evals >= budget || t.res.aborted {
			break
		}
		// Reserving every root up front is the later-root cut: no path
		// can step onto a chiplet another subtree must start from.
		for _, c := range roots {
			t.used[c>>6] |= 1 << (c & 63)
		}
		t.roots = roots
		t.left = perTree
		t.assign(0)
		clear(t.used)
	}
	return t.res
}

// pathPasses scores tree-search leaves incrementally. In a tree search
// every segment sits on its own chiplet: used reserves the roots and
// every path step. So each model's pipeline stages are exactly its
// segments, and the window's flow counts follow from the plans alone —
// Σ(nseg−1) NoP flows and Σ(2+nseg) off-chip streams. The contention
// factors are then the same at every leaf of one search, and a model's
// pass depends only on its own chiplet path. So a leaf recomputes only
// the passes of plans whose path changed since their pass was computed
// (usually the last plan's alone), each from the search's stage table
// (see eval.StageTable), and combines the stored passes, bit-identical
// to evaluating the whole window. Passes are computed at leaves, not as
// paths complete, because most completed paths on a crowded package
// lead to no leaf: a later plan finds no free path. Each pool worker
// owns one, reused by every search it runs, so no search allocates for
// it once the buffers have grown.
type pathPasses struct {
	table  *eval.StageTable
	at     []int            // plan k's segments are a leaf's [at[k], at[k+1])
	path   []int            // the chiplets each segment's stored pass was computed for
	passes []eval.ModelPass // plan k's pass
	order  []int            // plan indices by ascending model
	layers int
}

// reset prepares the passes for one search over the ordered plans.
func (p *pathPasses) reset(plans []modelPlan) {
	p.at = append(p.at[:0], 0)
	p.path = p.path[:0]
	p.passes = slices.Grow(p.passes[:0], len(plans))[:len(plans)]
	p.order = p.order[:0]
	crossFlows, offFlows := 0, 0
	p.layers = 0
	for k, pl := range plans {
		n := pl.numSegments()
		for range n {
			p.path = append(p.path, -1) // no pass computed yet
		}
		p.at = append(p.at, len(p.path))
		crossFlows += n - 1
		offFlows += 2 + n
		p.layers += pl.ends[n-1] + 1
		// Insertion by model index: plans are few, and windows sum
		// energy in model order.
		p.order = append(p.order, k)
		for i := len(p.order) - 1; i > 0 && plans[p.order[i-1]].model > pl.model; i-- {
			p.order[i], p.order[i-1] = p.order[i-1], p.order[i]
		}
	}
	p.table.Reset(len(p.path), crossFlows, offFlows)
}

// window returns the evaluation of the leaf window segs (every plan's
// segments in plan order, as the walk lays them out), exactly as
// Compiled.WindowEval would: latency is the maximum of every model's
// pipeline latency and busiest stage, energy the sum in ascending model
// order.
//
//scar:hotpath
func (p *pathPasses) window(segs []eval.Segment) eval.WindowEval {
	for k := range p.passes {
		plan := segs[p.at[k]:p.at[k+1]]
		path := p.path[p.at[k]:p.at[k+1]]
		for i := range plan {
			if path[i] != plan[i].Chiplet {
				for j := range plan {
					path[j] = plan[j].Chiplet
				}
				p.passes[k] = p.table.Pass(p.at[k], plan)
				break
			}
		}
	}
	we := eval.WindowEval{NumLayers: p.layers}
	for _, k := range p.order {
		mp := &p.passes[k]
		we.EnergyJ += mp.EnergyPJ * 1e-12
		if mp.LatencySec > we.LatencySec {
			we.LatencySec = mp.LatencySec
		}
		if mp.BusiestSec > we.LatencySec {
			we.LatencySec = mp.BusiestSec
		}
	}
	return we
}

// words returns the number of 64-bit words of a bitset over n chiplets.
func words(n int) int { return (n + 63) / 64 }

// successors returns, per chiplet, the bitset of the chiplets a path may
// step to next: its interposer neighbors, or every other chiplet under
// free placement. Chiplet c is bit c%64 of word c/64. All rows share one
// backing array.
func successors(adj [][]bool, freePlacement bool) [][]uint64 {
	w := words(len(adj))
	flat := make([]uint64, len(adj)*w)
	out := make([][]uint64, len(adj))
	for cur, row := range adj {
		out[cur] = flat[cur*w : (cur+1)*w : (cur+1)*w]
		for next, linked := range row {
			if (freePlacement || linked) && next != cur {
				out[cur][next>>6] |= 1 << (next & 63)
			}
		}
	}
	return out
}

// treeWalk is one tree search's DFS state. segs holds every plan's
// segments in plan order, plan k's from base[k] on; the walk writes a
// segment's chiplet as it places it, so at a leaf segs is the whole
// window.
type treeWalk struct {
	evalWin func(segs []eval.Segment) eval.WindowEval
	obj     Objective
	stop    func() bool
	budget  int
	plans   []modelPlan
	next    [][]uint64
	used    []uint64 // bitset of the chiplets taken, laid out as next's rows
	segs    []eval.Segment
	base    []int
	roots   []int
	left    int
	res     treeResult
}

// done reports whether no further leaf would be scored: the tree's share
// or the total budget is spent, or the stop check fired.
func (t *treeWalk) done() bool {
	return t.left <= 0 || t.res.evals >= t.budget || t.res.aborted
}

// assign plants plan k's subtree at its root, or scores the window once
// every plan is placed. Callers only enter it while the walk is not done.
func (t *treeWalk) assign(k int) {
	if k < len(t.plans) {
		t.extend(k, 0, t.roots[k])
		return
	}
	score := t.obj.windowScore(t.evalWin(t.segs))
	t.res.evals++
	t.left--
	if score < t.res.score {
		// Snapshot only improvements, into one buffer: the walk
		// rewrites segs in place.
		t.res.score = score
		t.res.segments = append(t.res.segments[:0], t.segs...)
		t.res.found = true
	}
	if t.stop != nil && t.stop() {
		t.res.aborted = true
	}
}

// extend places plan k's segment q on chiplet cur (already marked used),
// then either plants the next subtree or walks on to every free successor
// in ascending order. A word's free successors are read once: every
// deeper step restores the bits it takes before it returns.
func (t *treeWalk) extend(k, q, cur int) {
	t.segs[t.base[k]+q].Chiplet = cur
	if q+1 == t.plans[k].numSegments() {
		t.assign(k + 1)
		return
	}
	for w, row := range t.next[cur] {
		for free := row &^ t.used[w]; free != 0; free &= free - 1 {
			if t.done() {
				return
			}
			bit := free & -free
			t.used[w] |= bit
			t.extend(k, q+1, w<<6|bits.TrailingZeros64(free))
			t.used[w] &^= bit
		}
	}
}

// tupleBuf holds rootTuples' buffers. Each pool worker owns one, reused
// by every tree search it runs: the tuples of one call are valid only
// until the next.
type tupleBuf struct {
	flat  []int
	out   [][]int
	table []int32
	perm  []int
}

// rootTuples generates up to maxTrees injective chiplet tuples of the
// given arity: the canonical ascending tuple first (so small searches are
// stable) followed by deterministic seeded samples for coverage of the
// forest. Sampling stops early once every one of the
// chiplets!/(chiplets-arity)! tuples has been found. The tuples live in
// buf, which the next call overwrites.
func rootTuples(chiplets, arity, maxTrees int, rng *stream, buf *tupleBuf) [][]int {
	if arity > chiplets || arity == 0 {
		return nil
	}
	// space is the number of distinct tuples, saturated at maxTrees.
	space := 1
	for i := 0; i < arity && space < maxTrees; i++ {
		space *= chiplets - i
	}
	// Accepted tuples are copied into one backing array sized for all of
	// them, and indexed by an open-addressed table at most half full whose
	// slots hold an index into out plus one (0 marks an empty slot). A
	// tuple's slot is found from its key, which packs it into width-bit
	// fields; on wide tuples the packing overflows and two tuples can
	// share a key, so every probe compares the tuples themselves. Neither
	// flat nor out outgrows the capacity reserved here, so buf keeps their
	// backing arrays.
	n := min(maxTrees, space)
	buf.flat = slices.Grow(buf.flat[:0], n*arity)
	buf.out = slices.Grow(buf.out[:0], n)
	tableBits := bits.Len(uint(2*max(n, 1) - 1))
	buf.table = slices.Grow(buf.table[:0], 1<<tableBits)[:1<<tableBits] // n fits: out holds n slices
	buf.perm = slices.Grow(buf.perm[:0], chiplets)[:chiplets]
	flat, out, table, perm := buf.flat, buf.out, buf.table, buf.perm
	clear(table)
	mask := len(table) - 1
	width := bits.Len(uint(chiplets - 1))
	for i := range perm {
		perm[i] = i
	}
	// The canonical tuple goes in first. Sampling is with rejection; the
	// attempt bound keeps termination certain when maxTrees approaches
	// the tuple-space size.
	for attempts := maxTrees * 20; ; attempts-- {
		t := perm[:arity]
		var key uint64
		for _, c := range t {
			key = key<<width | uint64(c)
		}
		h := int(key * 0x9e3779b97f4a7c15 >> (64 - tableBits))
		for table[h] != 0 && !slices.Equal(out[table[h]-1], t) {
			h = (h + 1) & mask
		}
		if table[h] == 0 {
			flat = append(flat, t...)
			out = append(out, flat[len(flat)-arity:len(flat):len(flat)])
			table[h] = int32(len(out))
		}
		if len(out) >= n || attempts == 0 {
			return out
		}
		for i := range perm {
			perm[i] = i
		}
		rng.shuffle(perm)
	}
}
