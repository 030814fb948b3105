// Package online is a deterministic discrete-event simulator that drives
// a fleet of MCM packages through time under request load. Where the
// SCAR paper schedules a fixed multi-model scenario once, this package
// models the serving problem around it: scenario requests arrive over
// time (Poisson, periodic or trace-driven), queue for Config.Packages
// identical package replicas, execute under the schedule's evaluated
// window latencies, and are scored against per-model deadlines derived
// from XRBench frame rates (workload.Model.DeadlineSec). A pluggable
// Policy picks which waiting request a freed package serves next — FIFO
// (the default), EDF (earliest effective deadline first) or SwitchAware
// (amortize reconfigurations by serving same-class runs) — and the
// simulator reports SLA attainment, latency percentiles, queue depth,
// utilization and energy, charging a schedule-switch cost whenever a
// package's in-flight scenario class changes — the MCM-Reconfig
// window-entry weight reload that cannot overlap a drained pipeline.
// Optional admission control (Config.Admission) bounds the waiting
// queue and sheds load under overload — drop-tail behind watermark
// backpressure, or deadline-aware screening that rejects arrivals whose
// queue-implied start already busts their frame deadline — with
// rejected arrivals accounted per class instead of silently queueing.
//
// Simulations are bit-identical for a fixed configuration: arrival
// processes own seeded private RNGs, the event loop is single-goroutine,
// policies are deterministic pure functions, and every tie is broken by
// a documented rule — arrivals merge on (time, class index, sequence),
// dispatches break on (time, package index), and every aggregate
// accumulates in dispatch order. Running many simulations concurrently
// (the arrival-rate sweep, the serving daemon) cannot perturb any
// individual result.
package online

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"example.com/scar/internal/eval"
	"example.com/scar/internal/trace"
	"example.com/scar/internal/workload"
)

// Class is one request type the fleet serves: a scenario with its
// optimized schedule, evaluated metrics, deadlines, reconfiguration cost
// and arrival process.
type Class struct {
	// Name labels the class in reports.
	Name string
	// Scenario is the multi-model workload of the class.
	Scenario *workload.Scenario
	// Schedule is the class's optimized schedule; Metrics its evaluation
	// (window latencies, per-model latencies, energy).
	Schedule *eval.Schedule
	Metrics  eval.Metrics
	// SwitchInSec is the reconfiguration cost charged when a package
	// switches to this class from a different one (see SwitchCost).
	SwitchInSec float64
	// Deadlines maps model index -> seconds after request arrival by
	// which the model must complete (see DeriveDeadlines). Models absent
	// from the map are unconstrained. Keys outside the scenario's model
	// range are ignored by every consumer (SLA accounting, EDF ordering)
	// under one membership rule: only indices < len(Scenario.Models)
	// count.
	Deadlines map[int]float64
	// Spans is the optional per-execution span template (trace.Build of
	// the schedule); when set and Config.EmitTimeline is on, every
	// executed request contributes shifted copies of these spans to the
	// report's timeline.
	Spans *trace.Timeline
	// Arrivals generates the class's request arrival times.
	Arrivals Arrivals
}

// NewClass assembles a simulator class from a scheduled scenario: it
// evaluates the schedule on the compiled session, derives per-model
// deadlines (slackFactor covers models without frame rates), computes the
// schedule-switch cost and builds the span template for trace emission,
// all three evaluations on one Scratch.
func NewClass(name string, c *eval.Compiled, sched *eval.Schedule, arr Arrivals, slackFactor float64) (Class, error) {
	s := c.NewScratch()
	metrics, err := c.Evaluate(s, sched)
	if err != nil {
		return Class{}, fmt.Errorf("online: class %s: %w", name, err)
	}
	return Class{
		Name:        name,
		Scenario:    c.Scenario(),
		Schedule:    sched,
		Metrics:     metrics,
		SwitchInSec: SwitchCost(c, s, sched),
		Deadlines:   DeriveDeadlines(c.Scenario(), metrics, slackFactor),
		Spans:       trace.Build(c, s, sched),
		Arrivals:    arr,
	}, nil
}

// DeriveDeadlines builds the per-model deadline map of a scenario.
// Real-time models (FPS > 0) get their XRBench frame budget
// (Model.DeadlineSec, one second under the batch = fps convention).
// Models without a frame rate get slackFactor times their own scheduled
// latency — the request may queue for (slackFactor-1) service times
// before it is late — or no deadline at all when slackFactor <= 0.
func DeriveDeadlines(sc *workload.Scenario, metrics eval.Metrics, slackFactor float64) map[int]float64 {
	out := make(map[int]float64)
	for mi, m := range sc.Models {
		if d := m.DeadlineSec(); d > 0 {
			out[mi] = d
			continue
		}
		if slackFactor > 0 {
			if lat, ok := metrics.ModelLatency[mi]; ok && lat > 0 {
				out[mi] = slackFactor * lat
			}
		}
	}
	return out
}

// SwitchCost models the price of reconfiguring a package to a new
// schedule: the first MCM-Reconfig window's largest weight prefetch. In
// steady state the evaluator overlaps a stage's weight load with the
// upstream pipeline fill, but when the scenario mix changes the pipeline
// has drained and the incoming schedule's window-entry weight reload is
// exposed on the critical path. s is the evaluation's Scratch.
func SwitchCost(c *eval.Compiled, s *eval.Scratch, sched *eval.Schedule) float64 {
	if len(sched.Windows) == 0 {
		return 0
	}
	var worst float64
	for _, st := range c.WindowTimings(s, sched.Windows[0]) {
		if st.WeightSec > worst {
			worst = st.WeightSec
		}
	}
	return worst
}

// Config is one simulation's input.
type Config struct {
	// Classes are the request types; at least one is required.
	Classes []Class
	// Packages is the number of identical package replicas sharing the
	// queue (0 = 1). Every replica can run every class's schedule; each
	// tracks its own configured class and pays its own switch costs.
	Packages int
	// Policy picks which waiting request a freed package serves next
	// (nil = FIFO{}, the single-queue arrival-order discipline).
	Policy Policy
	// HorizonSec bounds arrival generation (exclusive). Requests in
	// flight at the horizon still run to completion.
	HorizonSec float64
	// MaxRequestsPerClass bounds each class's arrival count. At least
	// one of HorizonSec and MaxRequestsPerClass must be positive.
	MaxRequestsPerClass int
	// EmitTimeline attaches a merged trace.Timeline of every executed
	// request to the report (classes need span templates). Spans of all
	// packages share one timeline, shifted to their service start.
	EmitTimeline bool
	// MaxTimelineSpans caps the emitted span count (0 = 100000). The cap
	// is reported via Report.TimelineTruncated, never silent.
	MaxTimelineSpans int
	// Admission configures admission control: a bounded waiting queue
	// with watermark backpressure and a pluggable load shedder (see
	// Admission). nil admits every arrival — the legacy fail-open
	// behavior, where overload grows the queue without bound.
	Admission *Admission
	// CollectTiming attaches a wall-clock phase breakdown of the
	// simulator itself (Report.Timing): validation, arrival generation,
	// the event loop, aggregation. Off by default and deliberately so —
	// wall-clock readings vary run to run, while every other report
	// field is bit-identical for a fixed configuration; leaving Timing
	// nil keeps reports DeepEqual-comparable.
	CollectTiming bool
}

// PhaseTimings is the simulator's own wall-clock phase breakdown
// (Config.CollectTiming), in milliseconds. These time the simulator
// program, not the simulated fleet: use them to see where a slow
// simulation call spends its time (arrival generation and the event
// loop both scale with requests × classes).
type PhaseTimings struct {
	ValidateMs  float64 `json:"validate_ms"`
	ArrivalsMs  float64 `json:"arrivals_ms"`
	EventLoopMs float64 `json:"event_loop_ms"`
	AggregateMs float64 `json:"aggregate_ms"`
	TotalMs     float64 `json:"total_ms"`
}

// phaseClock accumulates PhaseTimings laps; the zero value (off) makes
// every method a no-op so timing collection never branches call sites.
type phaseClock struct {
	on          bool
	start, last time.Time
}

func newPhaseClock(on bool) phaseClock {
	if !on {
		return phaseClock{}
	}
	now := time.Now() //scar:nondeterm operator-facing phase timings; Report.Timing is nil under the replay contract and excluded from determinism tests
	return phaseClock{on: true, start: now, last: now}
}

// lap charges the time since the previous lap to dst.
func (c *phaseClock) lap(dst *float64) {
	if !c.on {
		return
	}
	now := time.Now() //scar:nondeterm wall-clock lap for operator-facing PhaseTimings, never part of simulated results
	*dst += now.Sub(c.last).Seconds() * 1e3
	c.last = now
}

// attach finalizes TotalMs and hands pt to the report (nil when off).
func (c *phaseClock) attach(rep *Report, pt *PhaseTimings) {
	if !c.on {
		return
	}
	pt.TotalMs = time.Since(c.start).Seconds() * 1e3 //scar:nondeterm total wall-clock of the run, reported only when CollectTiming is set
	rep.Timing = pt
}

// RequestOutcome is one request's simulated life cycle.
type RequestOutcome struct {
	// Class and Seq identify the request (class index, per-class arrival
	// sequence number).
	Class int `json:"class"`
	Seq   int `json:"seq"`
	// Package is the replica that served the request.
	Package int `json:"package"`
	// ArrivalSec / BusyStartSec / StartSec / FinishSec are absolute
	// times. BusyStartSec is when the package began working on the
	// request — the moment it left the waiting queue; any schedule-switch
	// reconfiguration runs in [BusyStartSec, StartSec) and service proper
	// in [StartSec, FinishSec). Without a switch BusyStartSec equals
	// StartSec. Queue-depth accounting pops at BusyStartSec: a request
	// being reconfigured-for occupies its package, it is not waiting.
	ArrivalSec   float64 `json:"arrival_sec"`
	BusyStartSec float64 `json:"busy_start_sec"`
	StartSec     float64 `json:"start_sec"`
	FinishSec    float64 `json:"finish_sec"`
	// WaitSec is queueing delay (service start minus arrival, switch
	// included); SojournSec the end-to-end request latency.
	WaitSec    float64 `json:"wait_sec"`
	SojournSec float64 `json:"sojourn_sec"`
	// Switched marks that serving this request reconfigured its package.
	Switched bool `json:"switched,omitempty"`
	// MissedModels lists the model indices that blew their deadline.
	MissedModels []int `json:"missed_models,omitempty"`
}

// ClassReport aggregates one class's outcomes.
type ClassReport struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// Offered counts the class's arrivals (served plus shed); Shed the
	// ones rejected at admission. Requests = Offered - Shed.
	Offered int `json:"offered"`
	Shed    int `json:"shed,omitempty"`
	// DeadlineChecks / DeadlineMisses count this class's share of the
	// global deadline accounting, under the same membership rule (only
	// deadline keys within the scenario's model range count), so the
	// per-class attainments always reconcile with Report.SLAAttainment.
	DeadlineChecks int     `json:"deadline_checks"`
	DeadlineMisses int     `json:"deadline_misses"`
	SLAAttainment  float64 `json:"sla_attainment"`
	MeanSojourn    float64 `json:"mean_sojourn_sec"`
	P99Sojourn     float64 `json:"p99_sojourn_sec"`
}

// PackageReport aggregates one replica's activity.
type PackageReport struct {
	Package  int `json:"package"`
	Requests int `json:"requests"`
	// BusySec is the package's working time (service plus
	// reconfiguration); Utilization its busy fraction of the makespan.
	BusySec     float64 `json:"busy_sec"`
	Utilization float64 `json:"utilization"`
	// ScheduleSwitches / SwitchSec count this package's
	// reconfigurations and their total cost.
	ScheduleSwitches int     `json:"schedule_switches"`
	SwitchSec        float64 `json:"switch_sec"`
}

// Report is the simulation output.
type Report struct {
	// Requests is the number served to completion; OfferedRequests the
	// number that arrived (served plus shed — they differ only under
	// admission control). MakespanSec is the completion time of the last
	// served request. Packages and Policy echo the engine configuration
	// that produced the report.
	Requests        int     `json:"requests"`
	OfferedRequests int     `json:"offered_requests"`
	Packages        int     `json:"packages"`
	Policy          string  `json:"policy"`
	MakespanSec     float64 `json:"makespan_sec"`

	// ShedRequests counts arrivals rejected at admission; ShedByReason
	// splits them by ShedOutcome.Reason (ReasonQueueFull or the
	// shedder's name). BackpressureEngagements counts low→high watermark
	// hysteresis engagements. All latency/SLA/queue aggregates below
	// cover served requests only — shed requests exist in nothing but
	// this accounting.
	ShedRequests            int            `json:"shed_requests,omitempty"`
	ShedByReason            map[string]int `json:"shed_by_reason,omitempty"`
	BackpressureEngagements int            `json:"backpressure_engagements,omitempty"`

	// DeadlineChecks counts (request, deadline-bounded model) pairs;
	// DeadlineMisses those completing late. SLAAttainment is their
	// complement ratio (1 when nothing is bounded). RequestsOnTime
	// counts requests with every bounded model on time.
	DeadlineChecks int     `json:"deadline_checks"`
	DeadlineMisses int     `json:"deadline_misses"`
	SLAAttainment  float64 `json:"sla_attainment"`
	RequestsOnTime int     `json:"requests_on_time"`

	// Sojourn-latency distribution (arrival to finish), in seconds.
	MeanLatencySec float64 `json:"mean_latency_sec"`
	P50LatencySec  float64 `json:"p50_latency_sec"`
	P95LatencySec  float64 `json:"p95_latency_sec"`
	P99LatencySec  float64 `json:"p99_latency_sec"`
	MaxLatencySec  float64 `json:"max_latency_sec"`
	MeanWaitSec    float64 `json:"mean_wait_sec"`

	// MeanQueueDepth is the time-averaged number of waiting requests
	// (total queue-waiting time over the makespan, per Little's law);
	// MaxQueueDepth the instantaneous peak of the waiting queue. Both
	// use one definition of waiting: a request waits from ArrivalSec to
	// BusyStartSec — it stops waiting when a package starts
	// reconfiguring for it, not at StartSec when service proper begins
	// (WaitSec/MeanWaitSec, by contrast, are latency metrics and keep
	// the switch time).
	MeanQueueDepth float64 `json:"mean_queue_depth"`
	MaxQueueDepth  int     `json:"max_queue_depth"`

	// Utilization is the busy fraction of the fleet's total package-time
	// (BusySec over Packages times the makespan; service plus
	// reconfiguration count as busy); ScheduleSwitches counts
	// reconfigurations across all packages and SwitchSec their total
	// cost.
	Utilization      float64 `json:"utilization"`
	BusySec          float64 `json:"busy_sec"`
	SwitchSec        float64 `json:"switch_sec"`
	ScheduleSwitches int     `json:"schedule_switches"`

	// EnergyJ is the summed schedule energy of every executed request.
	EnergyJ float64 `json:"energy_j"`

	PerClass   []ClassReport   `json:"per_class"`
	PerPackage []PackageReport `json:"per_package"`

	// Outcomes holds every served request's life cycle, in dispatch
	// order; Shed every rejected arrival, in arrival-merge order.
	Outcomes []RequestOutcome `json:"-"`
	Shed     []ShedOutcome    `json:"-"`

	// Timeline is the merged execution trace (EmitTimeline only).
	Timeline          *trace.Timeline `json:"-"`
	TimelineTruncated bool            `json:"timeline_truncated,omitempty"`

	// Timing is the simulator's own wall-clock phase breakdown
	// (CollectTiming only; nil otherwise so reports of identical
	// configurations stay bit-identical).
	Timing *PhaseTimings `json:"timing,omitempty"`
}

// boundedModel is one deadline-bounded model of a class: its index, its
// deadline relative to arrival and its latency within the schedule.
type boundedModel struct {
	model                   int
	deadlineSec, latencySec float64
}

// effectiveDeadline is a queued request's absolute effective deadline
// (EDF's ordering key): arrival plus the class's tightest relative
// deadline minDL, +Inf for unconstrained classes.
func effectiveDeadline(arrival, minDL float64) float64 {
	if math.IsInf(minDL, 1) {
		return math.Inf(1)
	}
	return arrival + minDL
}

// arrivalMerge admits the classes' arrival streams in merge order
// (time, class index, sequence) without sorting them together: each
// stream is ascending, so the next arrival is the earliest of the
// streams' fronts, ties going to the lower class.
type arrivalMerge struct {
	times [][]float64
	// next[c] is the sequence number of class c's next arrival.
	next []int
	// c and t are the class and time of the next arrival; c is -1 once
	// every stream is drained.
	c int
	t float64
}

func newArrivalMerge(times [][]float64) *arrivalMerge {
	m := &arrivalMerge{times: times, next: make([]int, len(times))}
	m.advance()
	return m
}

// advance finds the next arrival over the stream fronts.
func (m *arrivalMerge) advance() {
	m.c = -1
	for c, ts := range m.times {
		if i := m.next[c]; i < len(ts) && (m.c < 0 || ts[i] < m.t) {
			m.c, m.t = c, ts[i]
		}
	}
}

// pop admits the next arrival (m.c must be >= 0) and returns its class,
// sequence number and time.
func (m *arrivalMerge) pop() (class, seq int, t float64) {
	class, seq, t = m.c, m.next[m.c], m.t
	m.next[class]++
	m.advance()
	return class, seq, t
}

// waiting is the dispatcher's queue of admitted, unserved requests: one
// arrival-ordered slice per class plus the head of each non-empty
// class. A request's effective deadline is its arrival plus a per-class
// constant, so within a class, arrival order is deadline order too, and
// every built-in policy's choice over the whole queue is some class's
// head (FIFO: the global head; SwitchAware: the current class's head;
// EDF: the first request with the minimal deadline). Handing
// Policy.Pick the heads alone therefore picks the same request in
// O(classes) instead of O(queue depth), and shedders read the class
// slices themselves.
type waiting struct {
	// class[c] is class c's waiting requests in arrival order: a window
	// of one buffer whose capacity is the class's arrival count, so a
	// push never reallocates and a pop reslices the front.
	class [][]Queued
	// heads holds class[c][0] of every non-empty class in merge order.
	heads []Queued
	// depth counts the waiting requests.
	depth int
}

// mergeOrder is the simulator-wide merge order of queued requests:
// arrival time, then class index, then sequence number.
func mergeOrder(a, b Queued) int {
	if c := cmp.Compare(a.ArrivalSec, b.ArrivalSec); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// newWaiting sizes the queue for counts[c] arrivals of class c.
func newWaiting(counts []int) *waiting {
	total := 0
	for _, n := range counts {
		total += n
	}
	buf := make([]Queued, total)
	w := &waiting{
		class: make([][]Queued, len(counts)),
		heads: make([]Queued, 0, len(counts)),
	}
	off := 0
	for c, n := range counts {
		w.class[c] = buf[off : off : off+n]
		off += n
	}
	return w
}

// insertHead places a class's new head among the heads in merge order.
func (w *waiting) insertHead(q Queued) {
	i, _ := slices.BinarySearchFunc(w.heads, q, mergeOrder)
	w.heads = slices.Insert(w.heads, i, q)
}

// push queues an admitted arrival; arrivals come in merge order.
func (w *waiting) push(q Queued) {
	if len(w.class[q.Class]) == 0 {
		w.insertHead(q)
	}
	w.class[q.Class] = append(w.class[q.Class], q)
	w.depth++
}

// pop removes and returns heads[k], promoting its class's next request.
func (w *waiting) pop(k int) Queued {
	q := w.heads[k]
	w.heads = slices.Delete(w.heads, k, k+1)
	rest := w.class[q.Class][1:]
	w.class[q.Class] = rest
	if len(rest) > 0 {
		w.insertHead(rest[0])
	}
	w.depth--
	return q
}

// pkgState is one replica's engine state.
type pkgState struct {
	// freeAt is when the package finishes its current request.
	freeAt float64
	// class is the package's configured class (-1 before the first
	// request); run its consecutive same-class service count.
	class, run int
}

// validator lets arrival processes verify themselves before any
// simulation work runs (Trace implements it; see NewTrace).
type validator interface{ Validate() error }

// Simulate runs the discrete-event loop over Config.Packages replicas.
// Whenever a package is free and requests wait, the dispatcher hands
// the policy the head of each class's waiting requests; determinism
// comes from documented tie-breaks — arrivals are admitted in
// arrival-merge order (time, class index, sequence), the heads are
// listed in that order, and among packages free at the same dispatch
// time the lowest index serves first.
//
// ctx bounds the simulation: long runs (large horizons, high rates)
// poll it periodically and return ctx's error when it is cancelled — a
// simulation is all-or-nothing, so no partial report is emitted. An
// uncancelled ctx leaves results bit-identical to a context-free run.
func Simulate(ctx context.Context, cfg Config) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("online: simulation not started: %w", err)
	}
	clk := newPhaseClock(cfg.CollectTiming)
	var pt PhaseTimings
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("online: no request classes")
	}
	if cfg.HorizonSec <= 0 && cfg.MaxRequestsPerClass <= 0 {
		return nil, fmt.Errorf("online: unbounded simulation: set HorizonSec or MaxRequestsPerClass")
	}
	if cfg.Packages < 0 {
		return nil, fmt.Errorf("online: negative package count %d", cfg.Packages)
	}
	nPkgs := cfg.Packages
	if nPkgs == 0 {
		nPkgs = 1
	}
	pol := cfg.Policy
	if pol == nil {
		pol = FIFO{}
	}
	if cfg.Admission != nil {
		if err := cfg.Admission.Validate(); err != nil {
			return nil, err
		}
	}
	for ci := range cfg.Classes {
		c := &cfg.Classes[ci]
		if c.Schedule == nil || len(c.Schedule.Windows) == 0 {
			return nil, fmt.Errorf("online: class %d (%s) has no schedule", ci, c.Name)
		}
		if c.Metrics.LatencySec <= 0 {
			return nil, fmt.Errorf("online: class %d (%s) has non-positive service latency", ci, c.Name)
		}
		if c.Arrivals == nil {
			return nil, fmt.Errorf("online: class %d (%s) has no arrival process", ci, c.Name)
		}
		if v, ok := c.Arrivals.(validator); ok {
			if err := v.Validate(); err != nil {
				return nil, fmt.Errorf("online: class %d (%s): %w", ci, c.Name, err)
			}
		}
	}

	clk.lap(&pt.ValidateMs)

	// Generate the per-class arrival streams; the event loop merges
	// them as it admits. The ascending check is a cross-generator
	// invariant (custom Arrivals included) that the merge relies on; the
	// built-in Trace already fails faster through Validate above.
	times := make([][]float64, len(cfg.Classes))
	counts := make([]int, len(cfg.Classes))
	total := 0
	for ci := range cfg.Classes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("online: simulation cancelled: %w", err)
		}
		ts, err := cfg.Classes[ci].Arrivals.Times(ctx, cfg.HorizonSec, cfg.MaxRequestsPerClass)
		if err != nil {
			return nil, fmt.Errorf("online: class %d (%s): %w", ci, cfg.Classes[ci].Name, err)
		}
		for seq := 1; seq < len(ts); seq++ {
			if ts[seq] < ts[seq-1] {
				return nil, fmt.Errorf("online: class %d (%s) arrivals not ascending", ci, cfg.Classes[ci].Name)
			}
		}
		times[ci], counts[ci] = ts, len(ts)
		total += len(ts)
	}

	clk.lap(&pt.ArrivalsMs)

	rep := &Report{Requests: total, Packages: nPkgs, Policy: pol.Name()}
	if total == 0 {
		rep.SLAAttainment = 1
		rep.PerPackage = make([]PackageReport, nPkgs)
		for p := range rep.PerPackage {
			rep.PerPackage[p].Package = p
		}
		clk.attach(rep, &pt)
		return rep, nil
	}

	maxSpans := cfg.MaxTimelineSpans
	if maxSpans <= 0 {
		maxSpans = 100000
	}
	var tl *trace.Timeline
	if cfg.EmitTimeline {
		tl = &trace.Timeline{}
		for _, c := range cfg.Classes {
			if c.Spans != nil && c.Spans.Chiplets > tl.Chiplets {
				tl.Chiplets = c.Spans.Chiplets
			}
		}
	}

	// Per-class tightest relative deadline, for the queued requests'
	// effective deadlines (EDF's ordering key).
	minDL := make([]float64, len(cfg.Classes))
	for ci := range cfg.Classes {
		minDL[ci] = cfg.Classes[ci].minDeadlineOffset()
	}

	// Per-class deadline-bounded models, in ascending model order, each
	// with its deadline and its latency within the schedule. A Deadlines
	// key outside the scenario's models bounds nothing.
	bounded := make([][]boundedModel, len(cfg.Classes))
	for ci, c := range cfg.Classes {
		for mi := range c.Scenario.Models {
			d, ok := c.Deadlines[mi]
			if !ok {
				continue
			}
			lat, ok := c.Metrics.ModelLatency[mi]
			if !ok {
				lat = c.Metrics.LatencySec
			}
			bounded[ci] = append(bounded[ci], boundedModel{model: mi, deadlineSec: d, latencySec: lat})
		}
	}

	// Admission-control state: the resolved shedder, the per-class
	// admission constants and the watermark hysteresis flag. All nil/zero
	// when admission control is off.
	adm := cfg.Admission
	var shedder Shedder
	var admClasses []ShedClassView
	engaged := false
	if adm != nil {
		shedder = adm.shedder()
		admClasses = make([]ShedClassView, len(cfg.Classes))
		for ci := range cfg.Classes {
			admClasses[ci] = ShedClassView{
				ServiceSec: cfg.Classes[ci].Metrics.LatencySec,
				MaxWaitSec: cfg.Classes[ci].maxWaitOffset(),
			}
		}
	}

	// Dispatch loop: pick the earliest-free package (ties: lowest
	// index), advance to the next arrival if nothing waits, admit every
	// arrival up to the dispatch time — screening each one through
	// admission control — then let the policy pick among the class
	// heads. The loop runs until arrivals and queue are both exhausted:
	// with shedding, dispatches no longer map one-to-one onto arrivals.
	rep.Outcomes = make([]RequestOutcome, 0, total)
	pkgs := make([]pkgState, nPkgs)
	for p := range pkgs {
		pkgs[p].class = -1
	}
	rep.PerPackage = make([]PackageReport, nPkgs)
	for p := range rep.PerPackage {
		rep.PerPackage[p].Package = p
	}
	perChecks := make([]int, len(cfg.Classes))
	perMisses := make([]int, len(cfg.Classes))
	var missed []int
	arrivals := newArrivalMerge(times)
	queue := newWaiting(counts)
	var totalWait, totalQueueWait, totalSojourn float64
	for iter := 0; arrivals.c >= 0 || queue.depth > 0; iter++ {
		// Poll cancellation every 256 iterations: cheap against the
		// event loop's per-request work, prompt against any realistic
		// load.
		if iter&255 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("online: simulation cancelled after %d of %d requests: %w", len(rep.Outcomes), total, err)
			}
		}
		// Earliest dispatch time over the fleet...
		t := pkgs[0].freeAt
		for p := 1; p < nPkgs; p++ {
			if pkgs[p].freeAt < t {
				t = pkgs[p].freeAt
			}
		}
		minFree := t // earliest package free time, for admission views
		// ...advanced to the earliest available work: the queue head's
		// arrival when requests wait (a replica that has been idle since
		// before the head arrived must not serve it in the past), the
		// next arrival otherwise (the loop condition guarantees one
		// exists when the queue is empty).
		avail := arrivals.t
		if queue.depth > 0 {
			avail = queue.heads[0].ArrivalSec
		}
		if avail > t {
			t = avail
		}
		// ...served by the lowest-indexed package free at that time.
		pi := 0
		for pkgs[pi].freeAt > t {
			pi++
		}
		// Admit every arrival up to the dispatch time, in merge order.
		// Screening happens per arrival against the then-current queue —
		// an arrival at exactly the dispatch time is screened before the
		// dispatch pops the queue, so the request about to be served
		// still counts as waiting. Queue length only grows at arrivals,
		// so evaluating the watermark hysteresis here is exact.
		for arrivals.c >= 0 && arrivals.t <= t {
			ci, seq, at := arrivals.pop()
			rq := Queued{Class: ci, Seq: seq, ArrivalSec: at, DeadlineSec: effectiveDeadline(at, minDL[ci])}
			if adm != nil {
				if engaged && queue.depth <= adm.LowWatermark {
					engaged = false
				}
				if !engaged && adm.HighWatermark > 0 && queue.depth >= adm.HighWatermark {
					engaged = true
					rep.BackpressureEngagements++
				}
				reason := ""
				if adm.MaxQueueDepth > 0 && queue.depth >= adm.MaxQueueDepth {
					reason = ReasonQueueFull
				} else {
					view := AdmissionView{
						Packages:        nPkgs,
						NowSec:          at,
						EarliestFreeSec: minFree,
						Engaged:         engaged,
						Classes:         admClasses,
					}
					if shedder.Shed(rq, queue.class, view) {
						reason = shedder.Name()
					}
				}
				if reason != "" {
					rep.Shed = append(rep.Shed, ShedOutcome{Class: ci, Seq: seq, ArrivalSec: at, Reason: reason})
					continue
				}
			}
			queue.push(rq)
		}
		if queue.depth == 0 {
			// Every admitted arrival was shed; nothing to dispatch.
			continue
		}

		st := &pkgs[pi]
		k := pol.Pick(queue.heads, PackageView{Index: pi, Class: st.class, Run: st.run, NowSec: t})
		if k < 0 || k >= len(queue.heads) {
			return nil, fmt.Errorf("online: policy %s picked index %d of %d class heads", pol.Name(), k, len(queue.heads))
		}
		rq := queue.pop(k)
		if rq.ArrivalSec > t {
			// Cannot happen: every admitted request arrived by the
			// dispatch time (t covers the earliest head's arrival).
			// Guarded so a future engine change that breaks the
			// invariant fails loudly instead of serving a request before
			// it exists.
			return nil, fmt.Errorf("online: internal: dispatch at %v precedes arrival %v (class %d seq %d)",
				t, rq.ArrivalSec, rq.Class, rq.Seq)
		}
		c := &cfg.Classes[rq.Class]

		out := RequestOutcome{
			Class:      rq.Class,
			Seq:        rq.Seq,
			Package:    pi,
			ArrivalSec: rq.ArrivalSec,
		}
		// busyStart is when the package starts working on the request
		// (it stops waiting here — queue-depth accounting pops at this
		// instant); start is when service proper begins, after any
		// reconfiguration.
		busyStart := t
		start := t
		if rq.Class != st.class {
			if st.class >= 0 {
				rep.ScheduleSwitches++
				rep.SwitchSec += c.SwitchInSec
				rep.PerPackage[pi].ScheduleSwitches++
				rep.PerPackage[pi].SwitchSec += c.SwitchInSec
				start += c.SwitchInSec
				out.Switched = true
			}
			st.class = rq.Class
			st.run = 1
		} else {
			st.run++
		}
		finish := start + c.Metrics.LatencySec
		st.freeAt = finish
		out.BusyStartSec = busyStart
		out.StartSec = start
		out.FinishSec = finish
		out.WaitSec = start - rq.ArrivalSec
		out.SojournSec = finish - rq.ArrivalSec

		// Deadline scoring: model m completes at start + its pipeline
		// latency; the deadline counts from request arrival. Per-class
		// counters accumulate here, over the same bounded models as the
		// globals, so the two accountings cannot diverge. Every
		// outcome's MissedModels is a window of one shared buffer.
		from := len(missed)
		for _, b := range bounded[rq.Class] {
			if start+b.latencySec-rq.ArrivalSec > b.deadlineSec {
				missed = append(missed, b.model)
			}
		}
		rep.DeadlineChecks += len(bounded[rq.Class])
		perChecks[rq.Class] += len(bounded[rq.Class])
		if n := len(missed) - from; n > 0 {
			rep.DeadlineMisses += n
			perMisses[rq.Class] += n
			out.MissedModels = missed[from:len(missed):len(missed)]
		} else {
			rep.RequestsOnTime++
		}

		totalWait += out.WaitSec
		totalQueueWait += busyStart - rq.ArrivalSec
		totalSojourn += out.SojournSec
		rep.BusySec += finish - busyStart
		rep.PerPackage[pi].Requests++
		rep.PerPackage[pi].BusySec += finish - busyStart
		rep.EnergyJ += c.Metrics.EnergyJ
		if finish > rep.MakespanSec {
			rep.MakespanSec = finish
		}
		if tl != nil && c.Spans != nil && !rep.TimelineTruncated {
			if len(tl.Spans)+len(c.Spans.Spans) > maxSpans {
				// Truncate the tail, never punch holes: once one
				// request's spans do not fit, no later request is
				// recorded either, so the emitted trace is a complete
				// prefix of the simulation.
				rep.TimelineTruncated = true
			} else {
				for _, sp := range c.Spans.Spans {
					sp.StartSec += start
					sp.EndSec += start
					tl.Spans = append(tl.Spans, sp)
				}
			}
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}

	clk.lap(&pt.EventLoopMs)
	rep.finish(cfg, totalWait, totalQueueWait, totalSojourn, perChecks, perMisses, tl)
	clk.lap(&pt.AggregateMs)
	clk.attach(rep, &pt)
	return rep, nil
}

// finish derives the report's aggregates from the raw outcomes.
// totalWait sums switch-inclusive waits (StartSec - ArrivalSec);
// totalQueueWait sums time actually spent in the waiting queue
// (BusyStartSec - ArrivalSec), the quantity both queue-depth metrics
// are defined over. Latency/SLA aggregates cover served requests only;
// shed arrivals surface through the shed accounting. n == 0 (every
// arrival shed) leaves the latency aggregates at their zero values.
func (rep *Report) finish(cfg Config, totalWait, totalQueueWait, totalSojourn float64, perChecks, perMisses []int, tl *trace.Timeline) {
	n := len(rep.Outcomes)
	rep.Requests = n
	rep.OfferedRequests = n + len(rep.Shed)
	if len(rep.Shed) > 0 {
		rep.ShedRequests = len(rep.Shed)
		rep.ShedByReason = make(map[string]int)
		for _, s := range rep.Shed {
			rep.ShedByReason[s.Reason]++
		}
	}
	if n > 0 {
		rep.MeanWaitSec = totalWait / float64(n)
		rep.MeanLatencySec = totalSojourn / float64(n)
	}
	if rep.DeadlineChecks > 0 {
		rep.SLAAttainment = 1 - float64(rep.DeadlineMisses)/float64(rep.DeadlineChecks)
	} else {
		rep.SLAAttainment = 1
	}
	if rep.MakespanSec > 0 {
		rep.Utilization = rep.BusySec / (float64(rep.Packages) * rep.MakespanSec)
		rep.MeanQueueDepth = totalQueueWait / rep.MakespanSec
		for p := range rep.PerPackage {
			rep.PerPackage[p].Utilization = rep.PerPackage[p].BusySec / rep.MakespanSec
		}
	}

	// Lay the sojourns out by class, each class's window in dispatch
	// order, so the per-class sums accumulate in dispatch order; then
	// sort each window for the class percentiles, and the whole buffer
	// for the global ones.
	nc := len(cfg.Classes)
	rep.PerClass = make([]ClassReport, nc)
	for i := range rep.Outcomes {
		rep.PerClass[rep.Outcomes[i].Class].Requests++
	}
	for _, s := range rep.Shed {
		rep.PerClass[s.Class].Shed++
	}
	next := make([]int, nc)
	for ci := 1; ci < nc; ci++ {
		next[ci] = next[ci-1] + rep.PerClass[ci-1].Requests
	}
	sojourns := make([]float64, n)
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		sojourns[next[o.Class]] = o.SojournSec
		next[o.Class]++
	}

	// Per-class aggregates, in class order; next[ci] now ends class
	// ci's window. Deadline counters were accumulated in the dispatch
	// loop under the global membership rule.
	for ci := range rep.PerClass {
		cr := &rep.PerClass[ci]
		cr.Name = cfg.Classes[ci].Name
		cr.Offered = cr.Requests + cr.Shed
		cr.DeadlineChecks, cr.DeadlineMisses = perChecks[ci], perMisses[ci]
		cr.SLAAttainment = 1
		if cr.DeadlineChecks > 0 {
			cr.SLAAttainment = 1 - float64(cr.DeadlineMisses)/float64(cr.DeadlineChecks)
		}
		if cr.Requests > 0 {
			cls := sojourns[next[ci]-cr.Requests : next[ci]]
			var sum float64
			for _, v := range cls {
				sum += v
			}
			cr.MeanSojourn = sum / float64(cr.Requests)
			sort.Float64s(cls)
			cr.P99Sojourn = percentile(cls, 0.99)
		}
	}

	sort.Float64s(sojourns)
	rep.P50LatencySec = percentile(sojourns, 0.50)
	rep.P95LatencySec = percentile(sojourns, 0.95)
	rep.P99LatencySec = percentile(sojourns, 0.99)
	if n > 0 {
		rep.MaxLatencySec = sojourns[n-1]
	}
	rep.MaxQueueDepth = maxQueueDepth(rep.Outcomes)

	if tl != nil {
		tl.TotalSec = rep.MakespanSec
		sort.SliceStable(tl.Spans, func(i, j int) bool {
			if tl.Spans[i].StartSec != tl.Spans[j].StartSec {
				return tl.Spans[i].StartSec < tl.Spans[j].StartSec
			}
			return tl.Spans[i].Chiplet < tl.Spans[j].Chiplet
		})
		rep.Timeline = tl
	}
}

// percentile returns the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// maxQueueDepth sweeps arrivals (pushes) and busy starts (pops) for the
// instantaneous peak of the waiting queue. A request waits from its
// arrival until a package starts working on it (BusyStartSec) —
// reconfiguration time is package-busy time, not queueing, so a request
// being reconfigured-for does not count as queued. Pops go before
// pushes at equal times, so a request picked up the moment it arrives
// never counts as queued. The peak is reached right after a push: the
// i-th push in time order, less every pop no later than it.
func maxQueueDepth(outs []RequestOutcome) int {
	push := make([]float64, len(outs))
	pop := make([]float64, len(outs))
	for i := range outs {
		push[i], pop[i] = outs[i].ArrivalSec, outs[i].BusyStartSec
	}
	slices.Sort(push)
	slices.Sort(pop)
	max, popped := 0, 0
	for i, t := range push {
		for popped < len(pop) && pop[popped] <= t {
			popped++
		}
		if d := i + 1 - popped; d > max {
			max = d
		}
	}
	return max
}
