package eval

import "math"

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
