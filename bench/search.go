package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"example.com/scar/internal/baselines"
	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// searchSpec describes one offline-search workload: the problem grid
// (scenarios 1-10 x patterns x objectives on a width x width package)
// and the scheduler options every problem is searched with.
type searchSpec struct {
	width      int
	patterns   []string
	objectives []string
	opts       core.Options
}

// runSearch3x3 is the paper's brute-force tree search on 3x3 packages.
func runSearch3x3(ctx context.Context, r *run) error {
	return runSearch(ctx, r, searchSpec{
		width:      3,
		patterns:   []string{"het-sides", "het-cb", "simba-nvd"},
		objectives: []string{"edp", "latency", "energy"},
		opts:       core.DefaultOptions(),
	})
}

// runSearch6x6 is the Figure 13 configuration: evolutionary search with
// Heuristic 2's node cap on 6x6 packages.
func runSearch6x6(ctx context.Context, r *run) error {
	opts := core.DefaultOptions()
	opts.Search = core.SearchEvolutionary
	opts.NodeAllocCap = 6
	return runSearch(ctx, r, searchSpec{
		width:      6,
		patterns:   []string{"het-cross", "simba-nvd", "simba-shi"},
		objectives: []string{"edp", "latency"},
		opts:       opts,
	})
}

// pairing is one (scenario, package) pair with its compiled session and
// the Standalone baseline the quality ratio divides by.
type pairing struct {
	sc         *workload.Scenario
	m          *mcm.MCM
	comp       *eval.Compiled
	scratch    *eval.Scratch
	standalone eval.Metrics
}

// problem is one search: a pair, an objective and a fixed search seed.
// The seed is fixed per problem, not drawn from -seed, so every pass
// repeats the same searches: their cost depends strongly on the seed on
// the evolutionary path, and a pass that did different work each run
// would make the run-to-run spread wider than any bound worth having.
type problem struct {
	pair *pairing
	obj  core.Objective
	seed int64
	name string
}

// searchState is one set-up of a search workload.
type searchState struct {
	db       *costdb.DB
	sched    *core.Scheduler
	pairs    []*pairing
	problems []problem

	mcmBuild, warm time.Duration
	analyzeCalls   int64
}

// scenarioNumbers are the scenarios a workload uses: all ten, or two
// cheap ones in a small run.
func scenarioNumbers(small bool) []int {
	if small {
		return []int{8, 10}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

// setUpSearch builds the cold state: a fresh cost database, the packages,
// a compiled session per pair (which fills the database) and the
// baselines.
func setUpSearch(spec searchSpec, small bool) (*searchState, error) {
	st := &searchState{db: costdb.New(maestro.DefaultParams())}
	patterns, objectives := spec.patterns, spec.objectives
	if small {
		patterns, objectives = patterns[:1], objectives[:1]
	}
	nums := scenarioNumbers(small)
	t := time.Now()
	pkgs := make(map[string]*mcm.MCM)
	for _, edge := range []bool{false, true} {
		chip := maestro.DefaultDatacenterChiplet()
		if edge {
			chip = maestro.DefaultEdgeChiplet()
		}
		for _, pat := range patterns {
			m, err := mcm.ByName(pat, spec.width, spec.width, chip)
			if err != nil {
				return nil, err
			}
			pkgs[fmt.Sprint(pat, edge)] = m
		}
	}
	st.mcmBuild = time.Since(t)

	t = time.Now()
	for _, n := range nums {
		sc, err := models.ScenarioByNumber(n)
		if err != nil {
			return nil, err
		}
		for _, pat := range patterns {
			m := pkgs[fmt.Sprint(pat, n >= 6)]
			st.pairs = append(st.pairs, &pairing{sc: &sc, m: m, comp: eval.Compile(st.db, m, &sc, spec.opts.Eval)})
		}
	}
	st.warm = time.Since(t)
	_, st.analyzeCalls = st.db.Stats()

	for _, p := range st.pairs {
		p.scratch = p.comp.NewScratch()
		_, met, err := baselines.Standalone(st.db, p.sc, p.m, spec.opts.Eval)
		if err != nil {
			return nil, err
		}
		p.standalone = met
	}
	for _, p := range st.pairs {
		for _, o := range objectives {
			obj, err := core.ObjectiveByName(o)
			if err != nil {
				return nil, err
			}
			st.problems = append(st.problems, problem{
				pair: p, obj: obj, seed: int64(len(st.problems) + 1),
				name: fmt.Sprintf("%s/%s/%s", p.sc.Name, p.m.Name, o),
			})
		}
	}
	st.sched = core.New(st.db, spec.opts)
	return st, nil
}

// searchOp is what one search returned and what it cost.
type searchOp struct {
	res     *core.Result
	err     error
	elapsed time.Duration
	lookups int64
}

// search runs one problem. Untraced, it is the plain Schedule call a
// library user makes; traced, the same work split into its two layer
// calls (eval.Compile, then Schedule on the compiled session), each
// recorded as a span under the op's span.
func (st *searchState) search(ctx context.Context, r *run, p problem, op int, traced bool, opts core.Options) searchOp {
	req := core.NewRequest(p.pair.sc, p.pair.m, p.obj)
	seed := p.seed
	req.Seed = &seed
	if !traced {
		start := time.Now()
		res, err := st.sched.Schedule(ctx, req)
		return searchOp{res: res, err: err, elapsed: time.Since(start)}
	}
	h0, m0 := st.db.Stats()
	start := time.Now()
	req.Compiled = eval.Compile(st.db, p.pair.m, p.pair.sc, opts.Eval)
	compiled := time.Now()
	res, err := st.sched.Schedule(ctx, req)
	end := time.Now()
	h1, m1 := st.db.Stats()
	root := r.rec.add(0, op, "bench", "search", start, end)
	r.rec.add(root, op, "eval", "compile", start, compiled)
	r.rec.add(root, op, "core", "schedule", compiled, end)
	return searchOp{res: res, err: err, elapsed: end.Sub(start), lookups: (h1 + m1) - (h0 + m0)}
}

// resultDigest hashes every deterministic field of a search result.
func resultDigest(res *core.Result) uint64 {
	d := newDigester()
	met, _ := json.Marshal(res.Metrics) // floats encode shortest-exact; maps sorted
	d.bytes(met)
	d.int(res.Splits)
	d.int(res.WindowEvals)
	d.int(res.UniqueWindows)
	d.int(res.Candidates)
	for _, w := range res.Schedule.Windows {
		d.int(w.Index)
		for _, s := range w.Segments {
			d.int(s.Model)
			d.int(s.First)
			d.int(s.Last)
			d.int(s.Chiplet)
			d.int(s.Order)
		}
	}
	return d.sum()
}

// runSearch is the closed loop shared by the search workloads: one caller
// searches every problem once per pass, in an order drawn from -seed,
// and starts another pass only while a pass as long as the last one
// still fits in the run's seconds. Every measured op is checked: the
// result is complete, its metrics re-evaluate bit for bit on the
// workload's own compiled session, and it is bit-identical to the same
// problem's result in the first pass.
func runSearch(ctx context.Context, r *run, spec searchSpec) error {
	st, _, err := setUp(r, func() (*searchState, func(), error) {
		st, err := setUpSearch(spec, r.cfg.small)
		return st, func() {}, err
	})
	if err != nil {
		return err
	}
	r.layers["mcm.build_ms"] = ms(st.mcmBuild)
	r.layers["costdb.warm_ms"] = ms(st.warm)
	r.layers["maestro.analyze_calls"] = float64(st.analyzeCalls)

	rng := rand.New(rand.NewSource(r.cfg.seed))
	first := make([]*core.Result, len(st.problems))
	var quality []float64
	var lookups, cands, evals, unique, tracedOps float64
	budget := time.Duration(r.cfg.seconds * float64(time.Second))

	r.beginMeasure()
	start := time.Now()
	var lastPass time.Duration
	for pass := 0; pass == 0 || time.Since(start)+lastPass <= budget; pass++ {
		passStart := time.Now()
		traced := r.rec != nil && pass%2 == 0
		for _, pi := range rng.Perm(len(st.problems)) {
			p := st.problems[pi]
			o := st.search(ctx, r, p, r.attempted, traced, spec.opts)
			r.attempted++
			if traced {
				r.tracedLat = append(r.tracedLat, ms(o.elapsed))
			} else {
				r.lat = append(r.lat, ms(o.elapsed))
			}
			r.goodSpan += o.elapsed
			if !st.checkSearch(r, p, pi, o, first) {
				continue
			}
			r.good++
			if traced {
				tracedOps++
				lookups += float64(o.lookups)
				cands += float64(o.res.Candidates)
				evals += float64(o.res.WindowEvals)
				unique += float64(o.res.UniqueWindows)
			}
			if pass == 0 {
				quality = append(quality, p.obj.Score(o.res.Metrics)/p.obj.Score(p.pair.standalone))
			}
		}
		lastPass = time.Since(passStart)
		r.passes++
	}
	r.measured = time.Since(start)
	r.endMeasure()
	r.tailOfSlowest()
	_, misses := st.db.Stats()
	r.layers["costdb.misses"] = float64(misses - st.analyzeCalls)
	r.layers["costdb.entries"] = float64(st.db.Size())

	d := newDigester()
	for _, res := range first {
		if res != nil {
			d.u64(resultDigest(res))
		}
	}
	r.digest = d.sum()
	r.notes = append(r.notes, fmt.Sprintf("%d problems per pass; quality ratio (SCAR / Standalone score, geomean, simulated) %.6g", len(st.problems), geomean(quality)))
	if r.rec == nil {
		return nil
	}

	spans := r.rec.snapshot()
	sched := sortedCopy(spanDurations(spans, "core", "schedule"))
	r.layers["eval.compile_ms"] = mean(spanDurations(spans, "eval", "compile"))
	r.layers["core.schedule_ms_p50"] = quantile(sched, 0.5)
	r.layers["core.schedule_ms_p95"] = quantile(sched, 0.95)
	if tracedOps > 0 {
		r.layers["costdb.lookups_per_op"] = lookups / tracedOps
		r.layers["core.candidates_per_op"] = cands / tracedOps
		r.layers["core.window_evals_per_op"] = evals / tracedOps
		r.layers["core.unique_windows_per_op"] = unique / tracedOps
	}
	if evals > 0 {
		r.layers["core.window_cache_hit_ratio"] = 1 - unique/evals
	}
	r.layers["core.quality_ratio"] = geomean(quality)
	r.layers["eval.window_eval_ns"], r.layers["eval.window_eval_allocs"] = windowEvalCost(st, first)
	r.layers["costdb.hit_ns"], r.layers["maestro.analyze_us"] = costLayerProbe(st.db, st.pairs)
	return nil
}

// checkSearch applies the output checks to one op and keeps the first
// pass's results; it reports whether the op counts as correct.
func (st *searchState) checkSearch(r *run, p problem, pi int, o searchOp, first []*core.Result) bool {
	switch {
	case o.err != nil:
		r.opFailed("%s: %v", p.name, o.err)
		return false
	case o.res.Partial:
		r.opFailed("%s: partial result without a deadline", p.name)
		return false
	}
	met, err := p.pair.comp.Evaluate(p.pair.scratch, o.res.Schedule)
	if err != nil || !reflect.DeepEqual(met, o.res.Metrics) {
		r.opFailed("%s: schedule does not re-evaluate to its reported metrics (err %v)", p.name, err)
		return false
	}
	if first[pi] == nil {
		first[pi] = o.res
	} else if resultDigest(o.res) != resultDigest(first[pi]) {
		r.opFailed("%s: result differs from the first pass's", p.name)
		return false
	}
	return true
}

// windowEvalCost times Compiled.WindowEval with one reused Scratch over
// the windows of the run's own results, about 2,000 evaluations in all,
// and counts heap allocations per evaluation.
func windowEvalCost(st *searchState, results []*core.Result) (nsPerEval, allocsPerEval float64) {
	type win struct {
		comp *eval.Compiled
		s    *eval.Scratch
		w    eval.TimeWindow
	}
	var wins []win
	for i, res := range results {
		if res == nil {
			continue
		}
		p := st.problems[i].pair
		for _, w := range res.Schedule.Windows {
			wins = append(wins, win{p.comp, p.scratch, w})
		}
	}
	if len(wins) == 0 {
		return 0, 0
	}
	reps := max(1, 2000/len(wins))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, w := range wins {
		for i := 0; i < reps; i++ {
			w.comp.WindowEval(w.s, w.w)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(len(wins) * reps)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}

// costLayerProbe times the cost layers on the workload's own keys: every
// layer of every pair's scenario at its model batch, on each distinct
// chiplet class of the pair's package. It returns the mean warm
// costdb.DB.Cost lookup and the mean maestro.Analyze call.
func costLayerProbe(db *costdb.DB, pairs []*pairing) (hitNs, analyzeUs float64) {
	type key struct {
		l  workload.Layer
		ch mcm.Chiplet
	}
	var keys []key
	for _, p := range pairs {
		var classes []mcm.Chiplet
		for _, c := range p.m.Chiplets {
			dup := false
			for _, have := range classes {
				dup = dup || (have.Dataflow.Name == c.Dataflow.Name && have.Spec == c.Spec)
			}
			if !dup {
				classes = append(classes, c)
			}
		}
		for _, model := range p.sc.Models {
			for _, l := range model.Layers {
				for _, c := range classes {
					keys = append(keys, key{l: l.WithBatch(model.Batch), ch: c})
				}
			}
		}
	}
	if len(keys) == 0 {
		return 0, 0
	}
	for _, k := range keys {
		db.Cost(k.l, k.ch.Dataflow, k.ch.Spec) // make every key resident first
	}
	start := time.Now()
	for _, k := range keys {
		db.Cost(k.l, k.ch.Dataflow, k.ch.Spec)
	}
	hitNs = float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	params := maestro.DefaultParams()
	start = time.Now()
	for _, k := range keys {
		maestro.Analyze(k.l, k.ch.Dataflow, k.ch.Spec, params)
	}
	analyzeUs = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(keys))
	return hitNs, analyzeUs
}
