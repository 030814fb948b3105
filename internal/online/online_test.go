package online

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// rig builds a small scheduled scenario: two models on a Simba 3x3
// package with a hand-made two-stage schedule, model 0 carrying an
// XRBench-style frame rate.
func rig(t testing.TB) (*eval.Compiled, *eval.Schedule) {
	t.Helper()
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Simba(3, 3, dataflow.NVDLA(), maestro.DefaultDatacenterChiplet())
	a := workload.NewModel("a", 4, []workload.Layer{
		workload.Conv("a0", 64, 64, 58, 58, 3, 1),
		workload.Conv("a1", 64, 64, 58, 58, 3, 1),
	}).WithFPS(4)
	b := workload.NewModel("b", 2, []workload.Layer{
		workload.GEMM("b0", 128, 768, 3072),
	})
	sc := workload.NewScenario("rig", a, b)
	comp := eval.Compile(db, pkg, &sc, eval.DefaultOptions())
	sched := &eval.Schedule{Windows: []eval.TimeWindow{
		{Index: 0, Segments: []eval.Segment{
			{Model: 0, First: 0, Last: 0, Chiplet: 0},
			{Model: 0, First: 1, Last: 1, Chiplet: 1},
			{Model: 1, First: 0, Last: 0, Chiplet: 4},
		}},
	}}
	return comp, sched
}

func mustClass(t testing.TB, name string, arr Arrivals, slack float64) Class {
	t.Helper()
	comp, sched := rig(t)
	c, err := NewClass(name, comp, sched, arr, slack)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustTimes draws an arrival stream under a live context.
func mustTimes(t *testing.T, a Arrivals, horizonSec float64, max int) []float64 {
	t.Helper()
	out, err := a.Times(context.Background(), horizonSec, max)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewClassDerivations(t *testing.T) {
	c := mustClass(t, "c", Poisson{RatePerSec: 1, Seed: 1}, 2)
	if c.Metrics.LatencySec <= 0 {
		t.Fatal("class has no service latency")
	}
	// Model 0 has FPS=batch → one-second frame budget; model 1 falls back
	// to slack × its scheduled latency.
	if d := c.Deadlines[0]; d != 1.0 {
		t.Errorf("real-time deadline = %v, want 1.0", d)
	}
	want := 2 * c.Metrics.ModelLatency[1]
	if d := c.Deadlines[1]; math.Abs(d-want) > 1e-12 {
		t.Errorf("slack deadline = %v, want %v", d, want)
	}
	if c.SwitchInSec <= 0 {
		t.Error("switch-in cost should be positive (first window loads weights)")
	}
	if c.SwitchInSec >= c.Metrics.LatencySec {
		t.Errorf("switch-in %v should be below full service %v", c.SwitchInSec, c.Metrics.LatencySec)
	}
	if c.Spans == nil || len(c.Spans.Spans) == 0 {
		t.Error("class span template missing")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := Config{
			Classes: []Class{
				mustClass(t, "a", Poisson{RatePerSec: 3, Seed: 7}, 3),
				mustClass(t, "b", Poisson{RatePerSec: 1, Seed: 11}, 3),
			},
			HorizonSec:   50,
			EmitTimeline: true,
		}
		rep, err := Simulate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two simulations of the same config differ")
	}
	if r1.Requests == 0 {
		t.Fatal("no requests simulated")
	}
}

func TestSimulateLoadBehavior(t *testing.T) {
	c := mustClass(t, "c", nil, 1.2)
	svc := c.Metrics.LatencySec

	at := func(arr Arrivals) *Report {
		cl := c
		cl.Arrivals = arr
		rep, err := Simulate(context.Background(), Config{Classes: []Class{cl}, MaxRequestsPerClass: 400, HorizonSec: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Light load leaves 10x headroom between requests (no queueing at
	// all); heavy load arrives at twice the service rate.
	light := at(Periodic{PeriodSec: 10 * svc})
	heavy := at(Poisson{RatePerSec: 2.0 / svc, Seed: 5})

	if light.SLAAttainment != 1 {
		t.Errorf("light load SLA = %v, want 1 (deadlines have slack, queue empty)", light.SLAAttainment)
	}
	if heavy.SLAAttainment >= light.SLAAttainment {
		t.Errorf("overload SLA %v should be below light-load SLA %v", heavy.SLAAttainment, light.SLAAttainment)
	}
	if heavy.P99LatencySec <= light.P99LatencySec {
		t.Errorf("overload p99 %v should exceed light-load p99 %v", heavy.P99LatencySec, light.P99LatencySec)
	}
	if heavy.MeanQueueDepth <= light.MeanQueueDepth {
		t.Errorf("overload queue depth %v should exceed light-load %v", heavy.MeanQueueDepth, light.MeanQueueDepth)
	}
	if heavy.Utilization <= light.Utilization {
		t.Errorf("overload utilization %v should exceed light-load %v", heavy.Utilization, light.Utilization)
	}
	if heavy.Utilization > 1+1e-9 {
		t.Errorf("utilization %v > 1", heavy.Utilization)
	}
	if light.MaxQueueDepth > heavy.MaxQueueDepth {
		t.Errorf("max queue depth light %d > heavy %d", light.MaxQueueDepth, heavy.MaxQueueDepth)
	}

	// Percentiles are order statistics of the same distribution.
	for _, r := range []*Report{light, heavy} {
		if r.P50LatencySec > r.P95LatencySec || r.P95LatencySec > r.P99LatencySec || r.P99LatencySec > r.MaxLatencySec {
			t.Errorf("percentiles not monotone: %v %v %v %v", r.P50LatencySec, r.P95LatencySec, r.P99LatencySec, r.MaxLatencySec)
		}
		if r.EnergyJ <= 0 {
			t.Error("no energy accounted")
		}
	}
}

func TestScheduleSwitching(t *testing.T) {
	// Two classes strictly alternating: every request after the first
	// pays the switch-in reconfiguration.
	a := mustClass(t, "a", Periodic{PeriodSec: 1, OffsetSec: 0.0}, 2)
	b := mustClass(t, "b", Periodic{PeriodSec: 1, OffsetSec: 0.5}, 2)
	rep, err := Simulate(context.Background(), Config{Classes: []Class{a, b}, HorizonSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScheduleSwitches != rep.Requests-1 {
		t.Errorf("switches = %d, want %d (strict alternation)", rep.ScheduleSwitches, rep.Requests-1)
	}
	wantSwitchSec := float64(rep.ScheduleSwitches) * a.SwitchInSec
	if math.Abs(rep.SwitchSec-wantSwitchSec) > 1e-9 {
		t.Errorf("switch time = %v, want %v", rep.SwitchSec, wantSwitchSec)
	}
	// Busy time covers reconfiguration, not just service (both classes
	// share the rig's service latency).
	wantBusy := float64(rep.Requests)*a.Metrics.LatencySec + rep.SwitchSec
	if math.Abs(rep.BusySec-wantBusy) > 1e-9 {
		t.Errorf("busy time = %v, want service+switch = %v", rep.BusySec, wantBusy)
	}

	// The same total load from one class reconfigures nothing.
	mono, err := Simulate(context.Background(), Config{Classes: []Class{a}, HorizonSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	if mono.ScheduleSwitches != 0 {
		t.Errorf("single class switched %d times", mono.ScheduleSwitches)
	}
	if mono.SwitchSec != 0 {
		t.Errorf("single class switch time %v", mono.SwitchSec)
	}
}

func TestTimelineEmission(t *testing.T) {
	c := mustClass(t, "c", Periodic{PeriodSec: 5}, 2)
	rep, err := Simulate(context.Background(), Config{Classes: []Class{c}, HorizonSec: 20, EmitTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline == nil {
		t.Fatal("no timeline emitted")
	}
	want := rep.Requests * len(c.Spans.Spans)
	if len(rep.Timeline.Spans) != want {
		t.Fatalf("timeline spans = %d, want %d", len(rep.Timeline.Spans), want)
	}
	if rep.Timeline.TotalSec != rep.MakespanSec {
		t.Errorf("timeline total %v != makespan %v", rep.Timeline.TotalSec, rep.MakespanSec)
	}
	for _, sp := range rep.Timeline.Spans {
		if sp.EndSec > rep.MakespanSec+1e-9 {
			t.Errorf("span %v exceeds makespan", sp)
		}
	}
	// Span cap is honored and reported.
	small, err := Simulate(context.Background(), Config{Classes: []Class{c}, HorizonSec: 20, EmitTimeline: true, MaxTimelineSpans: len(c.Spans.Spans)})
	if err != nil {
		t.Fatal(err)
	}
	if !small.TimelineTruncated {
		t.Error("span cap not reported as truncation")
	}
	if len(small.Timeline.Spans) > len(c.Spans.Spans) {
		t.Errorf("span cap exceeded: %d", len(small.Timeline.Spans))
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(context.Background(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
	c := mustClass(t, "c", Poisson{RatePerSec: 1, Seed: 1}, 2)
	if _, err := Simulate(context.Background(), Config{Classes: []Class{c}}); err == nil {
		t.Error("unbounded simulation accepted")
	}
	bad := c
	bad.Arrivals = Trace{TimesSec: []float64{3, 1}}
	if _, err := Simulate(context.Background(), Config{Classes: []Class{bad}, HorizonSec: 10}); err == nil {
		t.Error("descending trace accepted")
	}
	empty := c
	empty.Arrivals = Trace{}
	rep, err := Simulate(context.Background(), Config{Classes: []Class{empty}, HorizonSec: 10})
	if err != nil || rep.Requests != 0 || rep.SLAAttainment != 1 {
		t.Errorf("empty arrival stream: rep=%+v err=%v", rep, err)
	}
}

func TestTraceArrivalsClipping(t *testing.T) {
	tr := Trace{TimesSec: []float64{0.5, 1.5, 2.5, 3.5}}
	if got := mustTimes(t, tr, 2.0, 0); len(got) != 2 {
		t.Errorf("horizon clip = %v", got)
	}
	if got := mustTimes(t, tr, 0, 3); len(got) != 3 {
		t.Errorf("max clip = %v", got)
	}
}

func TestPoissonReproducible(t *testing.T) {
	p := Poisson{RatePerSec: 10, Seed: 42}
	a, b := mustTimes(t, p, 5, 0), mustTimes(t, p, 5, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Poisson stream not reproducible")
	}
	if len(a) == 0 {
		t.Fatal("Poisson generated nothing over 5s at rate 10")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("Poisson times not ascending")
		}
	}
	q := mustTimes(t, Poisson{RatePerSec: 10, Seed: 43}, 5, 0)
	if reflect.DeepEqual(a, q) {
		t.Error("different seeds gave identical streams")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 0.5); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(s, 0.99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(s, 0.0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}

func TestUnboundedArrivalGuards(t *testing.T) {
	// Called directly (outside Simulate's validation) with no bounds,
	// no process may loop forever — and all of them agree on returning
	// nil rather than a truncated prefix. (Periodic used to emit one
	// element where Poisson returned nil.)
	if got := mustTimes(t, Poisson{RatePerSec: 10, Seed: 1}, 0, 0); got != nil {
		t.Errorf("unbounded Poisson returned %d times, want nil", len(got))
	}
	if got := mustTimes(t, Periodic{PeriodSec: 1}, 0, 0); got != nil {
		t.Errorf("unbounded Periodic returned %d times, want nil", len(got))
	}
	if got := mustTimes(t, Periodic{PeriodSec: 1, OffsetSec: 3}, 0, 0); got != nil {
		t.Errorf("unbounded offset Periodic returned %d times, want nil", len(got))
	}
	// Bounded Periodic still emits.
	if got := mustTimes(t, Periodic{PeriodSec: 1}, 2.5, 0); len(got) != 3 {
		t.Errorf("bounded Periodic = %v, want 3 times", got)
	}
	if got := mustTimes(t, Periodic{PeriodSec: 1}, 0, 2); len(got) != 2 {
		t.Errorf("max-bounded Periodic = %v, want 2 times", got)
	}
}

func TestNewTraceValidatesAscending(t *testing.T) {
	if _, err := NewTrace([]float64{1, 3, 2}); err == nil {
		t.Error("descending trace accepted at construction")
	}
	tr, err := NewTrace([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatalf("ascending trace rejected: %v", err)
	}
	if got := mustTimes(t, tr, 0, 0); len(got) != 4 {
		t.Errorf("trace times = %v", got)
	}
	if _, err := NewTrace(nil); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

func TestTimelineTruncationIsPrefix(t *testing.T) {
	// Once truncation starts, no later request is recorded: the trace
	// is a complete prefix, never a trace with holes.
	c := mustClass(t, "c", Periodic{PeriodSec: 5}, 2)
	per := len(c.Spans.Spans)
	rep, err := Simulate(context.Background(), Config{
		Classes: []Class{c}, HorizonSec: 40,
		EmitTimeline: true, MaxTimelineSpans: 2*per + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 4 {
		t.Fatalf("want >= 4 requests, got %d", rep.Requests)
	}
	if !rep.TimelineTruncated {
		t.Fatal("truncation not reported")
	}
	if len(rep.Timeline.Spans) != 2*per {
		t.Fatalf("timeline spans = %d, want exactly the first two requests (%d)", len(rep.Timeline.Spans), 2*per)
	}
}

// TestSimulateCancelled: a dead context aborts before and during the
// event loop, with no partial report.
func TestSimulateCancelled(t *testing.T) {
	c := mustClass(t, "c", Poisson{RatePerSec: 5, Seed: 3}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Simulate(ctx, Config{Classes: []Class{c}, HorizonSec: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("cancelled simulation returned a partial report")
	}
	// An uncancelled context with a deadline far away is inert.
	live, liveCancel := context.WithTimeout(context.Background(), time.Hour)
	defer liveCancel()
	a, err := Simulate(live, Config{Classes: []Class{c}, HorizonSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), Config{Classes: []Class{c}, HorizonSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("live deadline context perturbed the simulation")
	}
}

// TestArrivalsHonourCancellation: a cancelled context stops arrival
// generation, even on a stream bounded only by a million-entry cap, and
// the error wraps context.Canceled.
func TestArrivalsHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range []Arrivals{Poisson{RatePerSec: 10, Seed: 1}, Periodic{PeriodSec: 0.1}} {
		got, err := a.Times(ctx, 0, 1<<20)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%T: err = %v, want context.Canceled", a, err)
		}
		if got != nil {
			t.Errorf("%T: cancelled generation returned %d arrivals", a, len(got))
		}
	}
}
