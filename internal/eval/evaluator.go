package eval

import (
	"math"
	"sync"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// Options tunes the evaluator's contention model (the delta term of
// Lat_com in Section III-E).
type Options struct {
	// NoPContentionAlpha is the serialization penalty per additional
	// concurrent NoP flow in a window.
	NoPContentionAlpha float64
	// OffchipContentionAlpha is the serialization penalty per
	// additional concurrent off-chip stream in a window (the DRAM
	// interface is package-shared).
	OffchipContentionAlpha float64
}

// DefaultOptions returns the calibrated contention constants. The
// off-chip factor is deliberately mild: a window's DRAM streams (weight
// prefetches, boundary activations) are spread over the window rather
// than fully simultaneous, so each additional stream costs a fraction of
// full serialization.
func DefaultOptions() Options {
	return Options{NoPContentionAlpha: 0.1, OffchipContentionAlpha: 0.15}
}

// WindowMetrics is the evaluation of one time window.
type WindowMetrics struct {
	// LatencySec is Lat(tw): the max across per-model pipeline
	// latencies and per-chiplet serialization.
	LatencySec float64
	// EnergyJ is the window's total energy in joules.
	EnergyJ float64
	// ModelLatency maps model index -> that model's pipeline latency in
	// the window (the Table VI breakdown).
	ModelLatency map[int]float64
	// NumLayers is the layer count executed in the window.
	NumLayers int
}

// Metrics is the evaluation of a complete schedule.
type Metrics struct {
	// LatencySec is Lat(Sc): the sum of window latencies.
	LatencySec float64
	// EnergyJ is the scenario energy in joules.
	EnergyJ float64
	// EDP is energy-delay product in joule-seconds.
	EDP float64
	// Windows holds the per-window breakdown.
	Windows []WindowMetrics
	// ModelLatency[m] is model m's end-to-end latency: the completion
	// time of its last window (window latencies accumulate across the
	// schedule, and a model finishes inside its final window at its
	// own pipeline latency). It backs the per-model optimization
	// targets of Section VI.
	ModelLatency map[int]float64
}

// Evaluator scores schedules for one (scenario, MCM) pair.
//
// Evaluation runs on a compiled session (see Compile): the first
// evaluation method called compiles the session's dense cost tables, and
// every method after that is lock-free against the cost database. An
// Evaluator is safe for concurrent use — the session is immutable once
// built and per-call Scratch state comes from an internal pool. Callers
// that manage their own worker Scratches (the parallel search in
// internal/core) obtain the session with Compile and call it directly.
type Evaluator struct {
	db   *costdb.DB
	m    *mcm.MCM
	sc   *workload.Scenario
	opts Options

	once     sync.Once
	compiled *Compiled
	scratch  sync.Pool
}

// New builds an evaluator. Construction is cheap: the compiled session is
// built lazily on first use.
func New(db *costdb.DB, m *mcm.MCM, sc *workload.Scenario, opts Options) *Evaluator {
	e := &Evaluator{db: db, m: m, sc: sc, opts: opts}
	e.scratch.New = func() any { return e.Compile().NewScratch() }
	return e
}

// Compile returns the evaluator's compiled session, building it on first
// call.
func (e *Evaluator) Compile() *Compiled {
	e.once.Do(func() { e.compiled = Compile(e.db, e.m, e.sc, e.opts) })
	return e.compiled
}

// getScratch borrows pooled scratch state for one evaluation call.
func (e *Evaluator) getScratch() *Scratch { return e.scratch.Get().(*Scratch) }

// MCM returns the evaluator's package model.
func (e *Evaluator) MCM() *mcm.MCM { return e.m }

// Scenario returns the evaluator's workload.
func (e *Evaluator) Scenario() *workload.Scenario { return e.sc }

// DB returns the evaluator's layer-cost database.
func (e *Evaluator) DB() *costdb.DB { return e.db }

// Evaluate validates the schedule and returns its metrics.
func (e *Evaluator) Evaluate(s *Schedule) (Metrics, error) {
	if err := s.Validate(e.sc, e.m); err != nil {
		return Metrics{}, err
	}
	return e.EvaluateUnchecked(s), nil
}

// EvaluateUnchecked scores a schedule without validity checking; the
// search inner loops use it on schedules that are valid by construction.
func (e *Evaluator) EvaluateUnchecked(s *Schedule) Metrics {
	c := e.Compile()
	sc := e.getScratch()
	m := c.EvaluateUnchecked(sc, s)
	e.scratch.Put(sc)
	return m
}

// stage is a maximal run of consecutive same-chiplet segments of one
// model inside a window: the unit of inter-chiplet pipelining. Segments
// that share a chiplet cannot overlap in time, so they fuse into one
// pipeline stage.
type stage struct {
	chiplet  int
	segments []Segment
}

func groupStages(segs []Segment) []stage {
	var out []stage
	for _, s := range segs {
		if n := len(out); n > 0 && out[n-1].chiplet == s.Chiplet {
			out[n-1].segments = append(out[n-1].segments, s)
			continue
		}
		out = append(out, stage{chiplet: s.Chiplet, segments: []Segment{s}})
	}
	return out
}

// StageTiming is the evaluated timing of one pipeline stage within a
// window. Times are seconds relative to the window start. BusyEnd
// approximates the completion of the stage's final pass (exact for the
// bottleneck stage; other stages drain by then in steady state).
type StageTiming struct {
	// Model is the scenario model index; Chiplet the hosting die.
	Model   int
	Chiplet int
	// Segments are the fused same-chiplet segments of the stage.
	Segments []Segment
	// WeightSec is the weight prefetch duration (overlaps upstream
	// fill).
	WeightSec float64
	// FirstStart / FirstEnd bound the first pipeline pass.
	FirstStart, FirstEnd float64
	// PassSec is the steady per-pass latency; Passes the pass count
	// (batch / mini-batch).
	PassSec float64
	Passes  int
	// BusyEnd is the stage's approximate completion time.
	BusyEnd float64
	// EnergyPJ is the stage's total energy including weight load.
	EnergyPJ float64
}

// Window evaluates one time window: per-model inter-chiplet pipeline
// latency with mini-batches (Section III-E, Lat(SG_m)), window latency as
// the maximum across models and across per-chiplet busy time, and energy
// as the sum of all compute and communication energies.
func (e *Evaluator) Window(w TimeWindow) WindowMetrics {
	c := e.Compile()
	s := e.getScratch()
	wm := c.Window(s, w)
	e.scratch.Put(s)
	return wm
}

// WindowTimings returns the evaluated stage timings of every model in the
// window (the data behind schedule traces and Gantt rendering), in model
// then pipeline order.
func (e *Evaluator) WindowTimings(w TimeWindow) []StageTiming {
	c := e.Compile()
	s := e.getScratch()
	out := c.WindowTimings(s, w)
	e.scratch.Put(s)
	return out
}

// ContentionFactors derives the window's delta factors from its
// concurrent flows: every stage-to-stage hop is a NoP flow; every stage's
// weight load plus every model's boundary input/output is an off-chip
// stream.
func (e *Evaluator) ContentionFactors(w TimeWindow) (nop, off float64) {
	c := e.Compile()
	s := e.getScratch()
	nop, off = c.ContentionFactors(s, w)
	e.scratch.Put(s)
	return nop, off
}

func countLayers(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.NumLayers()
	}
	return n
}

// Score reduces metrics to a single objective value; see OptMetric.
type Score func(Metrics) float64

// Built-in optimization metrics (Definition 10): latency, energy and EDP
// searches from the paper, plus the latency-bounded EDP variant discussed
// in Section VI.
var (
	// LatencyScore minimizes end-to-end latency.
	LatencyScore Score = func(m Metrics) float64 { return m.LatencySec }
	// EnergyScore minimizes total energy.
	EnergyScore Score = func(m Metrics) float64 { return m.EnergyJ }
	// EDPScore minimizes the energy-delay product.
	EDPScore Score = func(m Metrics) float64 { return m.EDP }
)

// LatencyBoundedEDP returns an EDP score that invalidates schedules whose
// latency exceeds bound (Section VI's per-model constraint mechanism,
// applied at scenario granularity).
func LatencyBoundedEDP(bound float64) Score {
	return func(m Metrics) float64 {
		if m.LatencySec > bound {
			return math.Inf(1)
		}
		return m.EDP
	}
}

// PerModelLatencyBoundedEDP implements Section VI's per-model
// optimization targets: an EDP search lower-bounded by latency
// constraints on individual models. bounds maps model index -> maximum
// end-to-end latency in seconds; schedules where any bounded model
// finishes later are invalidated.
func PerModelLatencyBoundedEDP(bounds map[int]float64) Score {
	return func(m Metrics) float64 {
		for mi, bound := range bounds {
			if lat, ok := m.ModelLatency[mi]; ok && lat > bound {
				return math.Inf(1)
			}
		}
		return m.EDP
	}
}
