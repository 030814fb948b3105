package core

import (
	"fmt"

	"example.com/scar/internal/eval"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// Request bundles one scheduling invocation: the scenario to place, the
// package to place it on, the objective to optimize, and optional
// per-request overrides of the scheduler's hyperparameters. It is the
// single argument of Scheduler.Schedule — callers that previously passed
// (scenario, MCM, objective) positionally now build a Request (or use
// NewRequest) and gain cancellation, deadlines and progress reporting
// without further signature churn.
type Request struct {
	// Scenario is the multi-model workload to schedule (required).
	Scenario *workload.Scenario
	// MCM is the package to schedule onto (required).
	MCM *mcm.MCM
	// Objective is the optimization metric (required: a zero Objective
	// has no Score function and is rejected).
	Objective Objective

	// Per-request option overrides. A nil pointer inherits the
	// scheduler's Options; a non-nil pointer overrides that single knob
	// for this request only. The overridable knobs are exactly the ones
	// an online caller legitimately varies per request — concurrency,
	// search width, RNG seed and search mode — everything else is part
	// of the scheduler's identity (and of serving-layer cache keys).
	Workers *int
	NSplits *int
	Seed    *int64
	Search  *SearchMode

	// Progress, when set, overrides Options.Progress for this request
	// (see Options.Progress for the callback contract).
	Progress func(ProgressEvent)

	// Compiled optionally supplies a prebuilt evaluation session for
	// (Scenario, MCM) under the scheduler's eval options; when nil the
	// run compiles its own. The scar.Session handle uses this to compile
	// once per (scenario, MCM) instead of once per call.
	Compiled *eval.Compiled
}

// NewRequest builds the positional form of a Request: schedule sc on m
// under obj with no per-request overrides.
func NewRequest(sc *workload.Scenario, m *mcm.MCM, obj Objective) *Request {
	return &Request{Scenario: sc, MCM: m, Objective: obj}
}

// validate rejects structurally unusable requests before any search
// state is built.
func (req *Request) validate() error {
	if req == nil {
		return fmt.Errorf("core: nil request")
	}
	if req.Scenario == nil {
		return fmt.Errorf("core: request has no scenario")
	}
	if req.MCM == nil {
		return fmt.Errorf("core: request has no MCM")
	}
	if req.Objective.Score == nil {
		return fmt.Errorf("core: request has no objective")
	}
	if err := req.Scenario.Validate(); err != nil {
		return err
	}
	return req.MCM.Validate()
}

// apply resolves the request's effective options: the scheduler's
// configuration with the request's overrides folded in.
func (req *Request) apply(base Options) Options {
	o := base
	if req.Workers != nil {
		o.Workers = *req.Workers
	}
	if req.NSplits != nil {
		o.NSplits = *req.NSplits
	}
	if req.Seed != nil {
		o.Seed = *req.Seed
	}
	if req.Search != nil {
		o.Search = *req.Search
	}
	if req.Progress != nil {
		o.Progress = req.Progress
	}
	return o
}

// ChainProgress composes progress callbacks: the returned callback
// forwards each event to every non-nil input in order. Nil inputs are
// skipped and an all-nil chain returns nil, so callers can compose
// unconditionally. It exists so serving-layer instrumentation (the
// request tracer's window-eval spans) can attach an observer without
// clobbering a caller-configured Progress hook; like any Progress
// callback it is purely observational — search results stay
// bit-identical with or without it.
func ChainProgress(cbs ...func(ProgressEvent)) func(ProgressEvent) {
	var live []func(ProgressEvent)
	for _, cb := range cbs {
		if cb != nil {
			live = append(live, cb)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev ProgressEvent) {
		for _, cb := range live {
			cb(ev)
		}
	}
}

// ProgressEvent is one anytime-progress snapshot of a running search,
// delivered through Options.Progress (or Request.Progress). Events are
// emitted whenever an MCM-Reconfig candidate finishes, serialized (never
// two callbacks at once), with monotonically non-decreasing
// CandidatesDone. The incumbent fields reflect completion order, which
// depends on worker interleaving — the *final* Result is still
// deterministic, but mid-flight snapshots are observational.
type ProgressEvent struct {
	// CandidatesDone / CandidatesTotal count MCM-Reconfig partitioning
	// candidates finished vs planned.
	CandidatesDone  int
	CandidatesTotal int
	// WindowEvals counts the logical window evaluations of window
	// searches finished so far (memoized ones included): it advances
	// once per finished window search, not per evaluation, so a search
	// still in flight is not in it yet. UniqueWindows counts the
	// distinct windows those searches evaluated. Both are final once
	// every candidate is done (see Result.UniqueWindows).
	WindowEvals   int
	UniqueWindows int
	// CacheHitRate is the fraction of WindowEvals served from memory so
	// far, in [0, 1]. Both of its counts cover the same finished
	// searches, so evaluations still in flight never count as served.
	CacheHitRate float64
	// BestScore is the current incumbent's objective score (+Inf until
	// HasIncumbent); lower is better.
	BestScore    float64
	HasIncumbent bool
}
