// Package core implements SCAR, the multi-model scheduling framework of
// the paper (Section IV): the MCM-Reconfig engine (time-window
// characterization and greedy layer packing, Algorithm 1), the PROV
// engine (rule-based and exhaustive node provisioning, Equation 2), the
// SEG engine (layer segmentation with Heuristics 1-2) and the SCHED
// engine (scheduling-tree forests over the package adjacency, constrained
// DFS, schedule encoding), composed into the two-level top-level /
// per-window search of Figure 3.
package core

import (
	"fmt"

	"example.com/scar/internal/eval"
)

// ProvMode selects the PROV engine's node-distribution strategy.
type ProvMode int

const (
	// ProvRuleBased applies the uniform-distribution rule of Equation
	// (2).
	ProvRuleBased ProvMode = iota
	// ProvExhaustive enumerates node allocations (the Section V-E
	// ablation), bounded by MaxProvOptions.
	ProvExhaustive
)

// Options are the scheduler's hyperparameters. The defaults follow the
// paper's settings where it states them (nsplits=4, top-k segmentation
// candidates) and use bounded enumeration budgets elsewhere so that the
// brute-force search stays tractable, as the paper's heuristics intend.
type Options struct {
	// Workers bounds the goroutines the two-level search fans out across
	// MCM-Reconfig candidates, windows and segmentation-combo tree
	// searches (0 = GOMAXPROCS, 1 = serial). One bounded pool is shared
	// by all nesting levels. Results are bit-identical for every value:
	// search tasks derive private RNG streams from their (candidate,
	// window, alloc, combo) coordinates and reductions break score ties
	// by task index, so only wall-clock time depends on Workers.
	Workers int
	// NSplits is the maximum number of time-window splits explored by
	// MCM-Reconfig (paper default 4, i.e. up to 5 windows). Candidates
	// with 0..NSplits splits are generated and the best kept.
	NSplits int
	// ExactSplits restricts MCM-Reconfig to exactly NSplits splits
	// instead of sweeping 0..NSplits — used by the time-partitioning
	// and packing ablations to compare like with like.
	ExactSplits bool
	// TopKSeg is Heuristic 1's per-model segmentation shortlist size.
	TopKSeg int
	// SegEnumLimit is the maximum segmentation-candidate count that is
	// exhaustively enumerated per model; above it the SEG engine falls
	// back to cost-balanced splits plus seeded random samples.
	SegEnumLimit int
	// SegSamples is the number of sampled segmentations when falling
	// back.
	SegSamples int
	// NodeAllocCap is Heuristic 2's node allocation constraint: an
	// upper bound on nodes per model (0 disables it).
	NodeAllocCap int
	// Prov selects rule-based or exhaustive provisioning.
	Prov ProvMode
	// MaxProvOptions bounds exhaustive provisioning.
	MaxProvOptions int
	// MaxTrees bounds the number of scheduling trees (root-position
	// tuples) explored per segmentation combination.
	MaxTrees int
	// MaxCombos bounds the segmentation combinations per window
	// (cartesian product of per-model top-k lists, rank-ordered).
	MaxCombos int
	// WindowEvalBudget caps full window-schedule evaluations per
	// window; the tree search stops once it is exhausted.
	WindowEvalBudget int
	// Seed is the root of every seeded random stream of a search: each
	// window search derives its own seed from it and the window's layer
	// ranges, and from that the streams of SEG's sampling fallback, of
	// SCHED's root-tuple sampling and of the evolutionary search.
	Seed int64
	// Search selects brute-force tree search (3x3 default) or the
	// evolutionary algorithm (the paper's 6x6 configuration).
	Search SearchMode
	// FreePlacement disables the scheduling trees' adjacency
	// constraint: segment paths may use any unoccupied chiplet rather
	// than interposer neighbors. This is an ablation knob for the
	// RA-tree design choice — the paper's trees follow package
	// adjacency to keep pipeline hops short.
	FreePlacement bool
	// Eval configures the schedule evaluator's contention model.
	Eval eval.Options
	// Progress, when non-nil, receives anytime-progress snapshots while
	// a search runs: candidates explored, window-evaluation counts,
	// cache hit rate and the current incumbent score. Callbacks are
	// serialized (never concurrent) and must return quickly — they run
	// on search goroutines. Request.Progress overrides it per request.
	Progress func(ProgressEvent)
}

// DefaultOptions returns the paper-default configuration.
func DefaultOptions() Options {
	return Options{
		Workers:          0, // all cores; results are Workers-invariant
		NSplits:          4,
		TopKSeg:          3,
		SegEnumLimit:     2000,
		SegSamples:       120,
		NodeAllocCap:     0,
		Prov:             ProvRuleBased,
		MaxProvOptions:   64,
		MaxTrees:         60,
		MaxCombos:        27,
		WindowEvalBudget: 1500,
		Seed:             1,
		Search:           SearchBruteForce,
		Eval:             eval.DefaultOptions(),
	}
}

// FastOptions returns a reduced-budget configuration for tests and quick
// exploration.
func FastOptions() Options {
	o := DefaultOptions()
	o.NSplits = 2
	o.TopKSeg = 2
	o.SegEnumLimit = 300
	o.SegSamples = 40
	o.MaxTrees = 16
	o.MaxCombos = 8
	o.WindowEvalBudget = 300
	return o
}

// validate rejects search budgets the search cannot run with: it keeps
// at least one segmentation per model and one combination per window,
// and a negative tree count is meaningless (0 still plants the canonical
// tree).
func (o Options) validate() error {
	switch {
	case o.TopKSeg < 1:
		return fmt.Errorf("core: Options.TopKSeg is %d, want at least 1", o.TopKSeg)
	case o.MaxCombos < 1:
		return fmt.Errorf("core: Options.MaxCombos is %d, want at least 1", o.MaxCombos)
	case o.MaxTrees < 0:
		return fmt.Errorf("core: Options.MaxTrees is %d, want at least 0", o.MaxTrees)
	}
	return nil
}
