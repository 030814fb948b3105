package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; they must match the
// end_to_end list of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports; they must match the
// per_layer list of BENCHMARK.json. Every workload reports every one; a
// layer the workload never calls reads 0. README.md maps each metric to
// the workloads that exercise it and the end-to-end metric it should
// move.
var perLayer = []metricDef{
	{"mcm.build_ms", "ms"},
	{"costdb.warm_ms", "ms"},
	{"maestro.analyze_calls", "count"},
	{"maestro.analyze_us", "us"},
	{"costdb.lookups_per_op", "count"},
	{"costdb.hit_ns", "ns"},
	{"eval.compile_ms", "ms"},
	{"core.schedule_ms_p50", "ms"},
	{"core.schedule_ms_p95", "ms"},
	{"core.candidates_per_op", "count"},
	{"core.window_evals_per_op", "count"},
	{"core.unique_windows_per_op", "count"},
	{"core.window_cache_hit_ratio", "ratio"},
	{"core.quality_ratio", "ratio"},
	{"eval.window_eval_ns", "ns"},
	{"eval.window_eval_allocs", "count"},
	{"loadgen.send_lag_ms_p99", "ms"},
	{"loadgen.conn_wait_ms_p99", "ms"},
	{"http.overhead_us_p50", "us"},
	{"serve.requests", "count"},
	{"serve.cache_hits", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.searches", "count"},
	{"serve.simulations", "count"},
	{"serve.cache_lookup_us_p50", "us"},
	{"serve.await_inflight_ms_sum", "ms"},
	{"serve.admission_wait_ms_sum", "ms"},
	{"serve.search_ms_p50", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.sim_schedule_classes_ms_p50", "ms"},
	{"serve.sim_simulate_ms_p50", "ms"},
	{"serve.unphased_us_p50", "us"},
	{"serve.endpoint_p99_ms", "ms"},
	{"costdb.misses", "count"},
	{"costdb.entries", "count"},
	{"online.validate_ms", "ms"},
	{"online.arrivals_ms", "ms"},
	{"online.event_loop_ms", "ms"},
	{"online.aggregate_ms", "ms"},
	{"online.event_loop_ns_per_req_deep", "ns"},
	{"online.event_loop_ns_per_req_shallow", "ns"},
	{"online.offered", "count"},
	{"online.shed", "count"},
	{"online.queue_depth_max", "count"},
	{"online.switches", "count"},
	{"online.sla_attainment", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_pause_ms", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// maxFailureNotes bounds the failure reasons kept for the report; the
// counts stay exact.
const maxFailureNotes = 20

// run is the state one workload fills while it runs.
type run struct {
	cfg config
	rec *recorder // nil when untraced

	attempted, failed int
	// checkFailures counts failed checks that belong to no single op
	// (the final determinism re-run).
	checkFailures int
	failures      []string
	notes         []string

	setups []float64 // seconds, one per set-up repetition
	// tail is tail_ms, which each workload sets, and tailNote says what
	// it is; README.md gives the reasons for each choice.
	tail      float64
	tailNote  string
	lat       []float64 // ms, untraced ops
	tracedLat []float64 // ms, traced ops (traced runs only)
	// good ops over goodSpan is the goodput.
	good     int
	goodSpan time.Duration

	measured time.Duration
	passes   int
	digest   uint64
	layers   map[string]float64

	memBefore, memAfter runtime.MemStats
}

// opFailed counts one failed operation and keeps its reason.
func (r *run) opFailed(format string, args ...any) {
	r.failed++
	r.keepFailure(format, args...)
}

// checkFailed records a failed check that belongs to no single op.
func (r *run) checkFailed(format string, args ...any) {
	r.checkFailures++
	r.keepFailure(format, args...)
}

func (r *run) keepFailure(format string, args ...any) {
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setUp runs build setupReps times (once in a small run), records each
// duration, and keeps the last result; earlier ones are released first
// so they do not inflate the peak RSS.
func setUp[T any](r *run, build func() (T, func(), error)) (T, func(), error) {
	reps := setupReps
	if r.cfg.small {
		reps = 1
	}
	var (
		v       T
		release = func() {}
	)
	for i := 0; i < reps; i++ {
		release()
		var zero T
		v = zero
		runtime.GC()
		start := time.Now()
		var err error
		v, release, err = build()
		if err != nil {
			return v, release, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	return v, release, nil
}

// beginMeasure and endMeasure bracket the measured interval for the
// runtime metrics.
func (r *run) beginMeasure() { runtime.ReadMemStats(&r.memBefore) }
func (r *run) endMeasure()   { runtime.ReadMemStats(&r.memAfter) }

// tailOfSlowest sets tail_ms to the mean latency of the slowest 5% of the
// untraced ops, the closed loops' tail. Their op costs come in clusters
// (on 6x6, six scenario-5 problems of 60 take most of a pass), and a
// pooled p95 falls between two clusters at a rank that shifts with the
// number of whole passes that fit in the run; this mean moves only as the
// op latencies do.
func (r *run) tailOfSlowest() {
	const q = 0.95
	lat := sortedCopy(r.lat)
	r.tail = meanBeyond(lat, q)
	r.tailNote = fmt.Sprintf("the mean of the slowest %g%% of ops (%d)", 100*(1-q), beyond(len(lat), q))
}

// endToEnd fills the untraced metrics.
func (r *run) endToEnd(res *result) {
	lat := sortedCopy(r.lat)
	_, setup, _ := quartiles(r.setups)
	vals := map[string]float64{
		"setup_s":    setup,
		"p50_ms":     quantile(lat, 0.50),
		"tail_ms":    r.tail,
		"max_rss_mb": maxRSSMiB(),
	}
	if r.goodSpan > 0 {
		vals["goodput_per_s"] = float64(r.good) / r.goodSpan.Seconds()
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	note := fmt.Sprintf("latency samples %d; tail_ms is %s", len(lat), r.tailNote)
	if q, v, ok := tailQuantile(lat); ok {
		note += fmt.Sprintf("; highest percentile with %d+ beyond: p%g = %.4g ms", minBeyond, 100*q, v)
	}
	r.notes = append(r.notes, note, fmt.Sprintf("set-up repetitions (s): %.4g", r.setups))
}

// layerRuntime fills the per-layer metrics every workload shares.
func (r *run) layerRuntime() {
	const mib = 1 << 20
	b, a := &r.memBefore, &r.memAfter
	r.layers["runtime.alloc_mb_per_op"] = float64(a.TotalAlloc-b.TotalAlloc) / mib / float64(max(r.attempted, 1))
	r.layers["runtime.gc_pause_ms"] = float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6
	if len(r.lat) > 0 && len(r.tracedLat) > 0 {
		untraced := quantile(sortedCopy(r.lat), 0.5)
		traced := quantile(sortedCopy(r.tracedLat), 0.5)
		r.layers["obs.trace_overhead_frac"] = traced/untraced - 1
	}
}

// digester folds values into a 64-bit FNV-1a digest, bit-exact for
// floats, so equal digests mean bit-identical outputs.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digester) int(v int)      { d.u64(uint64(v)) }
func (d digester) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d digester) str(s string)   { d.bytes([]byte(s)) }
func (d digester) bytes(b []byte) { d.int(len(b)); d.h.Write(b) }
func (d digester) sum() uint64    { return d.h.Sum64() }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
