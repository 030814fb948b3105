package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

func rig() (*eval.Compiled, *eval.Schedule) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Simba(3, 3, dataflow.NVDLA(), maestro.DefaultDatacenterChiplet())
	a := workload.NewModel("a", 4, []workload.Layer{
		workload.Conv("a0", 64, 64, 58, 58, 3, 1),
		workload.Conv("a1", 64, 64, 58, 58, 3, 1),
	})
	b := workload.NewModel("b", 2, []workload.Layer{
		workload.GEMM("b0", 128, 768, 3072),
	})
	sc := workload.NewScenario("rig", a, b)
	c := eval.Compile(db, pkg, &sc, eval.DefaultOptions())
	sched := &eval.Schedule{Windows: []eval.TimeWindow{
		{Index: 0, Segments: []eval.Segment{
			{Model: 0, First: 0, Last: 0, Chiplet: 0},
			{Model: 0, First: 1, Last: 1, Chiplet: 1},
			{Model: 1, First: 0, Last: 0, Chiplet: 4},
		}},
	}}
	return c, sched
}

func TestBuildTimeline(t *testing.T) {
	c, sched := rig()
	tl := Build(c, c.NewScratch(), sched)
	if len(tl.Spans) != 3 {
		t.Fatalf("spans = %d, want 3 (two stages + one)", len(tl.Spans))
	}
	if tl.TotalSec <= 0 {
		t.Fatal("non-positive makespan")
	}
	for _, s := range tl.Spans {
		if s.EndSec <= s.StartSec {
			t.Errorf("span %+v has non-positive duration", s)
		}
		if s.EndSec > tl.TotalSec*1.0001 {
			t.Errorf("span %+v exceeds makespan %v", s, tl.TotalSec)
		}
		if s.Chiplet < 0 || s.Chiplet >= 9 {
			t.Errorf("span chiplet out of range: %+v", s)
		}
	}
	// Pipeline order: model 0's second stage starts after its first.
	var first, second Span
	for _, s := range tl.Spans {
		if s.Model == 0 && s.Chiplet == 0 {
			first = s
		}
		if s.Model == 0 && s.Chiplet == 1 {
			second = s
		}
	}
	if second.StartSec < first.StartSec {
		t.Errorf("downstream stage starts before upstream: %+v vs %+v", second, first)
	}
	if u := tl.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}

func TestTimelineMultiWindowOffsets(t *testing.T) {
	c, _ := rig()
	sched := &eval.Schedule{Windows: []eval.TimeWindow{
		{Index: 0, Segments: []eval.Segment{{Model: 0, First: 0, Last: 1, Chiplet: 0}}},
		{Index: 1, Segments: []eval.Segment{{Model: 1, First: 0, Last: 0, Chiplet: 0}}},
	}}
	tl := Build(c, c.NewScratch(), sched)
	if len(tl.Spans) != 2 {
		t.Fatalf("spans = %d", len(tl.Spans))
	}
	// Second-window span must start at or after the first window ends.
	w0End := tl.Spans[0].EndSec
	if tl.Spans[1].StartSec < w0End-1e-12 {
		t.Errorf("window 1 span starts %v before window 0 end %v", tl.Spans[1].StartSec, w0End)
	}
}

func TestGanttRendering(t *testing.T) {
	c, sched := rig()
	tl := Build(c, c.NewScratch(), sched)
	out := tl.Gantt(40)
	if !strings.Contains(out, "c0 ") || !strings.Contains(out, "c8 ") {
		t.Errorf("Gantt missing chiplet rows:\n%s", out)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("Gantt missing model marks:\n%s", out)
	}
	// Idle chiplets stay dotted.
	if !strings.Contains(out, "....") {
		t.Errorf("Gantt missing idle marks:\n%s", out)
	}
	// Tiny width is clamped, not panicking.
	if small := tl.Gantt(1); !strings.Contains(small, "c0") {
		t.Error("small-width Gantt broken")
	}
}

func TestChromeTraceExport(t *testing.T) {
	c, sched := rig()
	tl := Build(c, c.NewScratch(), sched)
	data, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if len(events) != len(tl.Spans) {
		t.Fatalf("events = %d, want %d", len(events), len(tl.Spans))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Errorf("event phase = %v, want X", e["ph"])
		}
		if e["dur"].(float64) <= 0 {
			t.Errorf("non-positive duration: %v", e)
		}
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := &Timeline{Chiplets: 4}
	if u := tl.Utilization(); u != 0 {
		t.Errorf("empty utilization = %v", u)
	}
	if out := tl.Gantt(20); !strings.Contains(out, "0 s total") && !strings.Contains(out, "timeline") {
		t.Errorf("empty Gantt = %q", out)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	c, sched := rig()
	tl := Build(c, c.NewScratch(), sched)
	data, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(tl.Spans) {
		t.Fatalf("round-trip spans = %d, want %d", len(back.Spans), len(tl.Spans))
	}
	// Microsecond conversion introduces at most float rounding; all
	// structural fields must survive exactly.
	const tol = 1e-9
	for i, want := range tl.Spans {
		got := back.Spans[i]
		if got.Chiplet != want.Chiplet || got.Model != want.Model ||
			got.Window != want.Window || got.Label != want.Label || got.Passes != want.Passes {
			t.Errorf("span %d: got %+v, want %+v", i, got, want)
		}
		if ds := got.StartSec - want.StartSec; ds > tol || ds < -tol {
			t.Errorf("span %d start %v, want %v", i, got.StartSec, want.StartSec)
		}
		if de := got.EndSec - want.EndSec; de > tol || de < -tol {
			t.Errorf("span %d end %v, want %v", i, got.EndSec, want.EndSec)
		}
	}
	if d := back.TotalSec - tl.TotalSec; d > 1e-9 || d < -1e-9 {
		t.Errorf("round-trip total %v, want %v", back.TotalSec, tl.TotalSec)
	}
	// The rig occupies chiplets 0..4 of 9; the export does not record
	// idle trailing chiplets.
	if back.Chiplets != 5 {
		t.Errorf("round-trip chiplets = %d, want 5 (highest used + 1)", back.Chiplets)
	}

	// A second round-trip stays within the same tolerance of the
	// original (structural fields are exact; timestamps only ever see
	// the microsecond float conversion).
	data2, err := back.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseChromeTrace(data2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range tl.Spans {
		got := back2.Spans[i]
		if got.Chiplet != want.Chiplet || got.Window != want.Window || got.Label != want.Label {
			t.Errorf("second round-trip span %d: got %+v, want %+v", i, got, want)
		}
		if ds := got.StartSec - want.StartSec; ds > tol || ds < -tol {
			t.Errorf("second round-trip span %d start %v, want %v", i, got.StartSec, want.StartSec)
		}
	}
}

func TestParseChromeTraceRejects(t *testing.T) {
	if _, err := ParseChromeTrace([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ParseChromeTrace([]byte(`[{"ph": "B", "cat": "window0"}]`)); err == nil {
		t.Error("non-complete event accepted")
	}
	if _, err := ParseChromeTrace([]byte(`[{"ph": "X", "cat": "gc"}]`)); err == nil {
		t.Error("foreign category accepted")
	}
	if _, err := ParseChromeTrace([]byte(`[{"ph": "X", "cat": "window0", "dur": -1}]`)); err == nil {
		t.Error("negative duration accepted")
	}
	tl, err := ParseChromeTrace([]byte(`[]`))
	if err != nil || len(tl.Spans) != 0 {
		t.Errorf("empty trace: %v %v", tl, err)
	}
}
