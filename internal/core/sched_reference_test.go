package core

import (
	"math"
	"sort"

	"example.com/scar/internal/eval"
)

// This file keeps the plain constrained DFS of Figure 5 as a test-only
// reference for treeSearch: closures, a fresh path buffer per subtree,
// a full adjacency-row scan per step and a segment slice per completed
// path. It walks branches that treeSearch cuts, which is exactly what
// makes it a differential oracle for the invariant that no cut ever skips
// a leaf.

// referenceSegmentsFor expands a plan into eval Segments along a chiplet
// path.
func referenceSegmentsFor(p modelPlan, path []int) []eval.Segment {
	segs := make([]eval.Segment, 0, len(p.ends))
	start := 0
	for q, end := range p.ends {
		segs = append(segs, eval.Segment{
			Model:   p.model,
			First:   p.r.First + start,
			Last:    p.r.First + end,
			Chiplet: path[q],
		})
		start = end + 1
	}
	return segs
}

// referenceTreeSearch has treeSearch's contract and is its reference.
func referenceTreeSearch(
	evalWin func(segs []eval.Segment) eval.WindowEval, adj [][]bool, chiplets int,
	plans []modelPlan, obj Objective, maxTrees, budget int, rng *stream, freePlacement bool,
	stop func() bool,
) treeResult {
	ordered := make([]modelPlan, len(plans))
	copy(ordered, plans)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].numSegments() > ordered[j].numSegments()
	})

	tuples := referenceRootTuples(chiplets, len(ordered), maxTrees, rng)
	if len(tuples) == 0 {
		return treeResult{}
	}
	perTree := budget / len(tuples)
	if perTree < 4 {
		perTree = 4
	}

	res := treeResult{score: math.Inf(1)}
	used := make([]bool, chiplets)
	segs := make([]eval.Segment, 0, 16)

	for _, roots := range tuples {
		if res.evals >= budget || res.aborted {
			break
		}
		left := perTree
		var assign func(k int)
		assign = func(k int) {
			if left <= 0 || res.evals >= budget || res.aborted {
				return
			}
			if k == len(ordered) {
				score := obj.windowScore(evalWin(segs))
				res.evals++
				left--
				if score < res.score {
					res.score = score
					res.segments = append([]eval.Segment(nil), segs...)
					res.found = true
				}
				if stop != nil && stop() {
					res.aborted = true
				}
				return
			}
			plan := ordered[k]
			root := roots[k]
			if used[root] {
				return
			}
			path := make([]int, 0, plan.numSegments())
			var dfs func(cur int)
			dfs = func(cur int) {
				if left <= 0 || res.aborted {
					return
				}
				used[cur] = true
				path = append(path, cur)
				if len(path) == plan.numSegments() {
					n := len(segs)
					segs = append(segs, referenceSegmentsFor(plan, path)...)
					assign(k + 1)
					segs = segs[:n]
				} else {
					for next := 0; next < len(adj[cur]); next++ {
						if (freePlacement || adj[cur][next]) && !used[next] && next != cur {
							dfs(next)
						}
					}
				}
				path = path[:len(path)-1]
				used[cur] = false
			}
			dfs(root)
		}
		assign(0)
	}
	return res
}

// referenceRootTuples is rootTuples' reference. Its dedup key keeps one
// byte per chiplet ID, so it only agrees with rootTuples on packages of
// at most 256 chiplets.
func referenceRootTuples(chiplets, arity, maxTrees int, rng *stream) [][]int {
	if arity > chiplets || arity == 0 {
		return nil
	}
	var out [][]int
	seen := map[string]bool{}
	add := func(t []int) bool {
		buf := make([]byte, len(t))
		for i, v := range t {
			buf[i] = byte(v)
		}
		k := string(buf)
		if seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, t)
		return true
	}
	canonical := make([]int, arity)
	for i := range canonical {
		canonical[i] = i
	}
	add(canonical)
	attempts := maxTrees * 20
	perm := make([]int, chiplets)
	for len(out) < maxTrees && attempts > 0 {
		attempts--
		for i := range perm {
			perm[i] = i
		}
		for i := chiplets - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		t := append([]int(nil), perm[:arity]...)
		add(t)
	}
	return out
}
