package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// Scheduler is the SCAR framework: it owns the offline cost database and
// hyperparameters and schedules multi-model scenarios onto MCMs.
//
// A Scheduler is immutable after New and safe for concurrent use: every
// Schedule call builds its own run state, and the cost database is
// concurrency-safe.
type Scheduler struct {
	db   *costdb.DB
	opts Options
}

// New builds a scheduler over the given cost database.
func New(db *costdb.DB, opts Options) *Scheduler {
	return &Scheduler{db: db, opts: opts}
}

// Options returns the scheduler's configuration.
func (s *Scheduler) Options() Options { return s.opts }

// Result is the scheduler's output: the optimized schedule, its evaluated
// metrics, and search statistics. Every field is deterministic for a given
// (scenario, MCM, objective, Options.Seed) regardless of Options.Workers,
// provided the run was not interrupted (Partial is false).
type Result struct {
	// Schedule is the best schedule instance found.
	Schedule *eval.Schedule
	// Metrics is its full evaluation.
	Metrics eval.Metrics
	// Splits is the number of time-window splits of the winning
	// MCM-Reconfig candidate.
	Splits int
	// Partial marks an anytime result: the request's context was
	// cancelled (or its deadline expired) before the search completed,
	// and Schedule is the best incumbent found up to that point — a
	// valid, fully evaluated schedule, but not necessarily the one an
	// uninterrupted search would return. Partial results depend on
	// cancellation timing and are therefore not deterministic.
	Partial bool
	// WindowEvals counts logical window-schedule evaluations requested
	// by the search (memoization hits included).
	WindowEvals int
	// UniqueWindows counts the distinct window configurations actually
	// evaluated; WindowEvals - UniqueWindows evaluations were served
	// from memory. Most of those are repeats of a whole window search in
	// a sibling candidate; under the evolutionary search or exhaustive
	// PROV, a search can also score one leaf twice. A window search cut
	// short by cancellation is neither memoized nor counted, so on a
	// Partial result UniqueWindows is a lower bound.
	UniqueWindows int
	// Candidates counts MCM-Reconfig partitioning candidates planned by
	// the search (on a Partial result, some may have been skipped).
	Candidates int
	// Explored holds the metrics of every feasible partitioning
	// candidate (the per-candidate cloud behind the paper's Pareto
	// plots), in candidate order.
	Explored []CandidateMetrics
}

// CacheHitRate returns the fraction of window evaluations served by the
// run's memoization layer, in [0, 1].
func (r *Result) CacheHitRate() float64 {
	if r.WindowEvals == 0 {
		return 0
	}
	return 1 - float64(r.UniqueWindows)/float64(r.WindowEvals)
}

// CandidateMetrics records one explored MCM-Reconfig candidate.
type CandidateMetrics struct {
	Splits  int
	Windows int
	Metrics eval.Metrics
}

// workerState is one pool worker's private evaluation state: a compiled-
// session Scratch, the tree search's per-path passes, a reusable
// memo-key buffer, a random source that each task re-seeds with its own
// derived seed (re-seeding yields the same stream as a fresh source)
// and a *rand.Rand drawing on it for SEG's samples, the
// count of leaf evaluations the worker was asked for (it paces the
// context poll) and the count of real leaf evaluations it made (a full
// WindowEval, or a tree-search leaf combined from its passes). The pool
// guarantees no two concurrently-running tasks share a worker id, so
// access is race-free without locks.
type workerState struct {
	scratch   *eval.Scratch
	paths     pathPasses
	key       []byte
	src       *randSource
	rng       *rand.Rand
	leafEvals int
	calls     int
}

// run bundles one scheduling invocation's state. All of it is either
// read-only after construction (context, effective options, compiled
// session, expectations, adjacency) or concurrency-safe (pool, window
// memo, atomics, mutex-guarded progress state, per-worker scratch
// state); search tasks carry their own derived RNG seeds.
type run struct {
	s       *Scheduler
	ctx     context.Context //scar:ctxfirst run is the request-scoped carrier for one Schedule call (the documented context exception); it never outlives the request
	opts    Options         // scheduler Options with the Request's overrides applied
	sc      *workload.Scenario
	m       *mcm.MCM
	comp    *eval.Compiled
	obj     Objective
	expLat  [][]float64
	expE    [][]float64
	outB    [][]float64 // per-layer output bytes at the model's batch
	adj     [][]bool
	pool    *pool
	workers []workerState
	memo    *windowMemo
	evals   atomic.Int64
	unique  atomic.Int64

	// memoLeaves gives every window search a leaf cache, including the
	// rule-based tree search that needs none; tests set it to prove
	// that claim.
	memoLeaves bool

	// stopped latches the first observation of ctx cancellation so the
	// per-leaf stop checks are one atomic load; truncated records that
	// the stop actually cut work short (the Result.Partial bit).
	stopped   atomic.Bool
	truncated atomic.Bool

	// Progress state, guarded by progMu so callbacks are serialized.
	progMu     sync.Mutex
	candsDone  int
	candsTotal int
	bestScore  float64
	hasBest    bool
}

// newRun prepares one invocation's shared state: the compiled evaluation
// session (dense cost tables, built once per (scenario, MCM) pair —
// reused from Request.Compiled when the caller holds a session) and one
// Scratch per pool worker, so the search's window evaluations are
// lock-free and allocation-free.
func (s *Scheduler) newRun(ctx context.Context, req *Request, opts Options) *run {
	comp := req.Compiled
	if comp == nil {
		comp = eval.Compile(s.db, req.MCM, req.Scenario, opts.Eval)
	}
	r := &run{
		s:    s,
		ctx:  ctx,
		opts: opts,
		sc:   req.Scenario,
		m:    req.MCM,
		comp: comp,
		obj:  req.Objective,
		// Hoisting the adjacency also forces the package's lazy network
		// build before workers fan out.
		adj:       req.MCM.AdjacencyMatrix(),
		pool:      newPool(opts.Workers),
		memo:      newWindowMemo(),
		bestScore: math.Inf(1),
	}
	r.expLat, r.expE = s.db.ExpectedLayers(req.Scenario, req.MCM)
	r.outB = outputBytes(req.Scenario)
	r.workers = make([]workerState, r.pool.NWorkers())
	for i := range r.workers {
		r.workers[i].scratch = r.comp.NewScratch()
		r.workers[i].paths.comp = r.comp
		r.workers[i].src = new(randSource)
		r.workers[i].rng = rand.New(r.workers[i].src)
	}
	return r
}

// stop reports whether the run's context is cancelled, latching the
// answer so later checks are a single atomic load.
func (r *run) stop() bool {
	if r.stopped.Load() {
		return true
	}
	if r.ctx.Err() != nil {
		r.stopped.Store(true)
		return true
	}
	return false
}

// searchStop is the per-leaf stop check handed to the tree and
// evolutionary searches: it only reads the latch (the latch itself is
// refreshed by the throttled context poll in window), so checking it
// between every two evaluations costs one atomic load.
func (r *run) searchStop() bool { return r.stopped.Load() }

// window evaluates one leaf of a window search with the given worker's
// scratch state: from the tree search's per-path passes when paths is
// non-nil (see pathPasses), with a full WindowEval otherwise. The search
// counts its own leaves and memoWindow adds them to the run's total once
// the search ends. With a nil leaves cache it evaluates directly: no
// key, map or lock. Otherwise probes reuse the worker's key buffer, and
// the cache stores the pointer-free eval.WindowEval, so only a miss
// allocates (the stored key). Every 32nd evaluation on a worker polls
// the run context so cancellation is observed within tens of
// microseconds of search work without putting ctx.Err on every
// evaluation.
func (r *run) window(worker int, leaves *windowCache, segs []eval.Segment, paths *pathPasses) eval.WindowEval {
	ws := &r.workers[worker]
	ws.leafEvals++
	if ws.leafEvals&31 == 0 && !r.stopped.Load() && r.ctx.Err() != nil {
		r.stopped.Store(true)
	}
	if leaves != nil {
		ws.key = appendWindowKey(ws.key[:0], segs)
		if we, ok := leaves.get(ws.key); ok {
			return we
		}
	}
	ws.calls++
	var we eval.WindowEval
	if paths != nil {
		we = paths.window(segs)
	} else {
		we = r.comp.WindowEval(ws.scratch, eval.TimeWindow{Segments: segs})
	}
	if leaves != nil {
		leaves.put(ws.key, we)
	}
	return we
}

// noteCandidate records one finished (or skipped) candidate for progress
// reporting and, when a Progress callback is configured, emits a
// serialized snapshot. Incumbent tracking here follows completion order —
// it feeds the observational progress stream only; the authoritative
// winner is still reduced in candidate order by searchPartitionings.
func (r *run) noteCandidate(out *candOutcome) {
	p := r.opts.Progress
	if p == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	r.candsDone++
	if out != nil && out.err == nil && !out.skipped {
		if score := r.obj.Score(out.metrics); score < r.bestScore {
			r.bestScore = score
			r.hasBest = true
		}
	}
	ev := ProgressEvent{
		CandidatesDone:  r.candsDone,
		CandidatesTotal: r.candsTotal,
		WindowEvals:     int(r.evals.Load()),
		UniqueWindows:   int(r.unique.Load()),
		BestScore:       r.bestScore,
		HasIncumbent:    r.hasBest,
	}
	if ev.WindowEvals > 0 {
		ev.CacheHitRate = 1 - float64(ev.UniqueWindows)/float64(ev.WindowEvals)
	}
	p(ev)
}

// Schedule runs the full two-level search of Figure 3 for the request,
// returning the optimized schedule. The search fans out across the
// effective Options.Workers goroutines; results are bit-identical for
// every worker count (see Options.Workers) as long as ctx stays alive.
//
// Cancellation follows anytime semantics: when ctx is cancelled or its
// deadline expires mid-search, the search stops at candidate/window/
// evaluation granularity and returns the best incumbent found so far
// with Result.Partial set — a valid schedule of possibly lower quality —
// or ctx's error when no feasible schedule had been found yet.
func (s *Scheduler) Schedule(ctx context.Context, req *Request) (*Result, error) {
	return s.schedule(ctx, req, greedyPacking)
}

// ScheduleUniformPacking is the Section V-E packing-ablation entry point:
// identical to Schedule but with count-uniform layer-to-window packing in
// place of Algorithm 1.
func (s *Scheduler) ScheduleUniformPacking(ctx context.Context, req *Request) (*Result, error) {
	return s.schedule(ctx, req, uniformPacking)
}

// schedule validates the request and its effective options, then
// searches the MCM-Reconfig candidates the packer builds.
func (s *Scheduler) schedule(ctx context.Context, req *Request, pack packer) (*Result, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: schedule request not started: %w", err)
	}
	opts := req.apply(s.opts)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := s.newRun(ctx, req, opts)
	return s.searchPartitionings(r, candidatePartitionings(r, pack))
}

// candOutcome is one candidate's end-to-end search result.
type candOutcome struct {
	sched   *eval.Schedule
	metrics eval.Metrics
	err     error
	// skipped marks candidates abandoned because the run was cancelled
	// before they started; they are neither errors nor results.
	skipped bool
	// internal marks evaluator rejections of schedules that should be
	// valid by construction; these abort the whole search.
	internal bool
}

// searchPartitionings evaluates every MCM-Reconfig candidate end to end —
// in parallel across candidates — and returns the best schedule under the
// objective. The reduction runs in candidate order with a strict
// comparison, so score ties break toward the lowest candidate index
// exactly as the serial loop always did. On cancellation, candidates not
// yet started are skipped and in-flight ones finish on their truncated
// incumbents; the reduction then covers whatever completed.
func (s *Scheduler) searchPartitionings(r *run, cands []partitioning) (*Result, error) {
	outcomes := make([]candOutcome, len(cands))
	r.candsTotal = len(cands)
	r.pool.forEach(0, len(cands), func(worker, ci int) {
		if r.stop() {
			outcomes[ci].skipped = true
			r.truncated.Store(true)
			r.noteCandidate(&outcomes[ci])
			return
		}
		sched, err := s.buildSchedule(r, worker, cands[ci])
		if err != nil {
			outcomes[ci].err = err
			r.noteCandidate(&outcomes[ci])
			return
		}
		metrics, err := r.comp.Evaluate(r.workers[worker].scratch, sched)
		if err != nil {
			outcomes[ci] = candOutcome{
				err:      fmt.Errorf("core: internal error, produced invalid schedule: %w", err),
				internal: true,
			}
			r.noteCandidate(&outcomes[ci])
			return
		}
		outcomes[ci] = candOutcome{sched: sched, metrics: metrics}
		r.noteCandidate(&outcomes[ci])
	})

	var best *Result
	bestScore := math.Inf(1)
	var lastErr error
	var explored []CandidateMetrics
	for ci, out := range outcomes {
		if out.internal {
			return nil, out.err
		}
		if out.skipped {
			continue
		}
		if out.err != nil {
			lastErr = out.err
			continue
		}
		explored = append(explored, CandidateMetrics{
			Splits:  cands[ci].splits,
			Windows: len(cands[ci].windows),
			Metrics: out.metrics,
		})
		score := r.obj.Score(out.metrics)
		if score < bestScore {
			bestScore = score
			best = &Result{
				Schedule: out.sched,
				Metrics:  out.metrics,
				Splits:   cands[ci].splits,
			}
		}
	}
	if best == nil {
		if r.stopped.Load() && r.ctx.Err() != nil {
			return nil, fmt.Errorf("core: search cancelled before any feasible schedule: %w", r.ctx.Err())
		}
		if lastErr != nil {
			return nil, fmt.Errorf("core: no feasible schedule: %w", lastErr)
		}
		return nil, fmt.Errorf("core: no feasible schedule found")
	}
	best.Partial = r.truncated.Load()
	best.WindowEvals = int(r.evals.Load())
	best.UniqueWindows = int(r.unique.Load())
	best.Candidates = len(cands)
	best.Explored = explored
	return best, nil
}

// assignmentSeed folds a window assignment's layer ranges into a salt, so
// a window's RNG root depends on its *content*, not on which candidate or
// window slot it appears in. Identical windows inside sibling candidates
// therefore run identical searches — which is what lets the window memo
// serve every repeat from the first — while remaining
// worker-count-invariant.
func assignmentSeed(w windowAssignment) int64 {
	salts := make([]int64, 0, 2*len(w))
	for _, rg := range w {
		salts = append(salts, int64(rg.First), int64(rg.Last))
	}
	return mixSeed(int64(len(w)), salts...)
}

// buildSchedule runs the per-window search for every window of a
// partitioning candidate, windows in parallel. self is the calling task's
// worker id. The first failing window (by index) determines the
// candidate's error.
func (s *Scheduler) buildSchedule(r *run, self int, p partitioning) (*eval.Schedule, error) {
	segs := make([][]eval.Segment, len(p.windows))
	errs := make([]error, len(p.windows))
	r.pool.forEach(self, len(p.windows), func(worker, wi int) {
		segs[wi], errs[wi] = s.memoWindow(r, worker, p.windows[wi])
	})
	sched := &eval.Schedule{}
	for wi := range p.windows {
		if errs[wi] != nil {
			return nil, fmt.Errorf("core: window %d: %w", wi, errs[wi])
		}
		sched.Windows = append(sched.Windows, eval.TimeWindow{Index: wi, Segments: segs[wi]})
	}
	return sched, nil
}

// memoWindow returns one window's search result through the run's window
// memo (see windowMemo): a repeat of a finished search returns a clone of
// its segments and counts its logical evaluations without running it. A
// new search gets a leaf cache only when it can score one leaf twice. It
// adds its leaf evaluations to WindowEvals once it ends, aborted or not,
// and its distinct leaves to UniqueWindows once it is stored.
func (s *Scheduler) memoWindow(r *run, self int, w windowAssignment) ([]eval.Segment, error) {
	ws := &r.workers[self]
	ws.key = appendAssignmentKey(ws.key[:0], w)
	if out, ok := r.memo.get(ws.key); ok {
		r.evals.Add(int64(out.evals))
		return slices.Clone(out.segs), out.err
	}
	// The search reuses the key buffer for leaf fingerprints.
	key := string(ws.key)

	var leaves *windowCache
	if r.opts.Search == SearchEvolutionary || r.opts.Prov == ProvExhaustive || r.memoLeaves {
		leaves = newWindowCache()
	}
	seed := mixSeed(r.opts.Seed, assignmentSeed(w))
	var out windowOutcome
	if r.opts.Search == SearchEvolutionary {
		out = s.searchWindowEvo(r, self, w, seed, leaves)
	} else {
		out = s.searchWindow(r, self, w, seed, leaves)
	}
	r.evals.Add(int64(out.evals))
	if out.aborted {
		r.truncated.Store(true)
		return out.segs, out.err
	}
	if r.memo.put(key, out) {
		unique := out.evals
		if leaves != nil {
			unique = leaves.Len()
		}
		r.unique.Add(int64(unique))
	}
	return out.segs, out.err
}

// comboTask is one (node allocation, segmentation combination) tree
// search within a window, with its derived RNG seed and share of the
// window's evaluation budget.
type comboTask struct {
	plans  []modelPlan
	budget int
	seed   int64
}

// searchWindow runs PROV -> SEG -> SCHED for one window and returns the
// best segment mapping found. The segmentation-combo tree searches fan
// out in parallel; the reduction keeps the lowest-index winner on ties.
// self is the calling task's worker id; seed is the window's
// deterministic RNG root (see mixSeed); leaves is the search's leaf
// cache, or nil to evaluate every leaf directly. Under cancellation every
// combo task still evaluates its first reachable leaf (the anytime floor:
// a feasible, if unoptimized, mapping) before aborting.
func (s *Scheduler) searchWindow(r *run, self int, w windowAssignment, seed int64, leaves *windowCache) windowOutcome {
	active, weights, layers := r.activeModels(w)
	if len(active) == 0 {
		return windowOutcome{err: fmt.Errorf("empty window")}
	}

	// PROV: node allocations.
	var allocOptions [][]int
	switch r.opts.Prov {
	case ProvExhaustive:
		opts, err := provisionExhaustive(weights, layers, r.m.NumChiplets(), r.opts.NodeAllocCap, r.opts.MaxProvOptions)
		if err != nil {
			return windowOutcome{err: err}
		}
		allocOptions = opts
	default:
		alloc, err := provisionRule(weights, layers, r.m.NumChiplets(), r.opts.NodeAllocCap)
		if err != nil {
			return windowOutcome{err: err}
		}
		allocOptions = [][]int{alloc}
	}

	// SEG + SCHED task construction stays serial (it is cheap relative
	// to the tree searches); every task carries its own derived seed.
	var tasks []comboTask
	segRng := r.workers[self].rng
	for ai, alloc := range allocOptions {
		// SEG: top-k segmentation candidates per model (Heuristic 1).
		topk := make([][]segCandidate, len(active))
		for i, mi := range active {
			topk[i] = segmentCandidates(
				r.sc.Models[mi].Batch, w[mi], alloc[i], r.opts.TopKSeg,
				r.expLat[mi], r.expE[mi], r.outB[mi],
				r.m, r.obj, r.opts, segRng, mixSeed(seed, 1, int64(ai), int64(i)),
			)
		}

		// SCHED: rank segmentation combinations by independent-score
		// sum, explore the best MaxCombos with the window budget.
		combos := rankedCombos(topk, r.opts.MaxCombos)
		if len(combos) == 0 {
			continue
		}
		budget := r.opts.WindowEvalBudget / (len(allocOptions) * len(combos))
		if budget < 8 {
			budget = 8
		}
		for j, combo := range combos {
			plans := make([]modelPlan, len(active))
			for i, mi := range active {
				plans[i] = modelPlan{model: mi, r: w[mi], ends: topk[i][combo[i]].ends}
			}
			tasks = append(tasks, comboTask{
				plans:  plans,
				budget: budget,
				seed:   mixSeed(seed, 2, int64(ai), int64(j)),
			})
		}
	}

	results := make([]treeResult, len(tasks))
	r.pool.forEach(self, len(tasks), func(worker, ti int) {
		t := tasks[ti]
		ws := &r.workers[worker]
		ws.src.Seed(t.seed)
		paths := &ws.paths
		evalWin := func(segs []eval.Segment) eval.WindowEval {
			return r.window(worker, leaves, segs, paths)
		}
		results[ti] = treeSearch(
			paths, evalWin, r.adj, r.m.NumChiplets(),
			t.plans, r.obj, r.opts.MaxTrees, t.budget, ws.src, r.opts.FreePlacement,
			r.searchStop,
		)
	})
	var out windowOutcome
	best := treeResult{score: math.Inf(1)}
	for _, res := range results {
		out.evals += res.evals
		out.aborted = out.aborted || res.aborted
		if res.found && res.score < best.score {
			best = res
		}
	}
	if !best.found {
		out.err = fmt.Errorf("no feasible chiplet mapping for %d models on %d chiplets", len(active), r.m.NumChiplets())
		return out
	}
	out.segs = best.segments
	return out
}

// activeModels returns PROV's inputs for one window: the models with
// layers in it, and per active model its objective-proxy weight E(P_i)
// and layer count.
func (r *run) activeModels(w windowAssignment) (active []int, weights []float64, layers []int) {
	for mi, rg := range w {
		if rg.empty() {
			continue
		}
		active = append(active, mi)
		var lat, eng float64
		for li := rg.First; li <= rg.Last; li++ {
			lat += r.expLat[mi][li]
			eng += r.expE[mi][li]
		}
		weights = append(weights, r.obj.proxy(lat, eng))
		layers = append(layers, rg.numLayers())
	}
	return active, weights, layers
}

// rankedCombos enumerates index tuples over the per-model candidate
// lists, ordered by the sum of candidate ranks (best independent scores
// first), capped at limit.
func rankedCombos(topk [][]segCandidate, limit int) [][]int {
	if len(topk) == 0 {
		return nil
	}
	for _, l := range topk {
		if len(l) == 0 {
			return nil
		}
	}
	var all [][]int
	cur := make([]int, len(topk))
	var rec func(i int)
	rec = func(i int) {
		if len(all) >= 4096 {
			return
		}
		if i == len(topk) {
			all = append(all, append([]int(nil), cur...))
			return
		}
		for j := 0; j < len(topk[i]); j++ {
			cur[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	slices.SortStableFunc(all, func(a, b []int) int { return cmp.Compare(sum(a), sum(b)) })
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}
