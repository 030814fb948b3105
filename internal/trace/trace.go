// Package trace turns evaluated schedules into execution timelines: a
// per-chiplet span list consistent with the evaluator's pipeline model,
// renderable as a text Gantt chart or exportable in the Chrome
// trace-event format (load the JSON in chrome://tracing or Perfetto).
// This is the textual analogue of the paper's Figure 9 time-window
// visualization, at stage granularity.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"example.com/scar/internal/eval"
)

// Span is one chiplet-occupancy interval.
type Span struct {
	// Chiplet is the hosting die; Model the scenario model index.
	Chiplet int
	Model   int
	// Window is the time-window index the span belongs to.
	Window int
	// Label describes the stage (model name plus layer range).
	Label string
	// StartSec / EndSec are absolute schedule times in seconds.
	StartSec, EndSec float64
	// Passes is the pipeline pass count executed in the span.
	Passes int
}

// Timeline is a complete schedule trace.
type Timeline struct {
	// Spans in ascending start order.
	Spans []Span
	// TotalSec is the schedule makespan.
	TotalSec float64
	// Chiplets is the package size (for rendering).
	Chiplets int
}

// Build evaluates the schedule's windows on the compiled session and lays
// their stage timings end-to-end on the schedule's absolute time axis,
// on the caller's Scratch for the session.
func Build(c *eval.Compiled, s *eval.Scratch, sched *eval.Schedule) *Timeline {
	sc := c.Scenario()
	tl := &Timeline{Chiplets: c.MCM().NumChiplets()}
	var offset float64
	for wi, w := range sched.Windows {
		we := c.WindowEval(s, w)
		for _, st := range c.WindowTimings(s, w) {
			model := sc.Models[st.Model]
			first := st.Segments[0]
			last := st.Segments[len(st.Segments)-1]
			label := fmt.Sprintf("%s[%s..%s]", model.Name,
				model.Layers[first.First].Name, model.Layers[last.Last].Name)
			tl.Spans = append(tl.Spans, Span{
				Chiplet:  st.Chiplet,
				Model:    st.Model,
				Window:   wi,
				Label:    label,
				StartSec: offset + st.FirstStart,
				EndSec:   offset + st.BusyEnd,
				Passes:   st.Passes,
			})
		}
		offset += we.LatencySec
	}
	tl.TotalSec = offset
	sort.SliceStable(tl.Spans, func(i, j int) bool {
		if tl.Spans[i].StartSec != tl.Spans[j].StartSec {
			return tl.Spans[i].StartSec < tl.Spans[j].StartSec
		}
		return tl.Spans[i].Chiplet < tl.Spans[j].Chiplet
	})
	return tl
}

// FromSpans assembles a Timeline directly from raw spans — the
// constructor for timelines that do not come from a schedule
// evaluation, such as the observability layer's per-request traces
// (internal/obs), where rows are requests instead of chiplets. Spans
// are copied and sorted under the package's canonical order; TotalSec
// is the last span end and Chiplets the highest row index plus one,
// matching what ParseChromeTrace reconstructs.
func FromSpans(spans []Span) *Timeline {
	tl := &Timeline{Spans: append([]Span(nil), spans...)}
	for _, s := range tl.Spans {
		if s.EndSec > tl.TotalSec {
			tl.TotalSec = s.EndSec
		}
		if s.Chiplet+1 > tl.Chiplets {
			tl.Chiplets = s.Chiplet + 1
		}
	}
	sort.SliceStable(tl.Spans, func(i, j int) bool {
		if tl.Spans[i].StartSec != tl.Spans[j].StartSec {
			return tl.Spans[i].StartSec < tl.Spans[j].StartSec
		}
		return tl.Spans[i].Chiplet < tl.Spans[j].Chiplet
	})
	return tl
}

// Utilization returns the fraction of chiplet-time covered by spans — a
// package-level occupancy figure for the schedule.
func (t *Timeline) Utilization() float64 {
	if t.TotalSec <= 0 || t.Chiplets == 0 {
		return 0
	}
	var busy float64
	for _, s := range t.Spans {
		busy += s.EndSec - s.StartSec
	}
	return busy / (t.TotalSec * float64(t.Chiplets))
}

// Gantt renders the timeline as a text chart: one row per chiplet, time
// bucketed into width columns, model letters marking occupancy.
func (t *Timeline) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedule timeline: %.4g s total, %.0f%% package occupancy\n",
		t.TotalSec, 100*t.Utilization())
	if t.TotalSec <= 0 {
		return b.String()
	}
	rows := make([][]byte, t.Chiplets)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, s := range t.Spans {
		// Spans are caller-supplied (FromSpans takes any values), so the
		// bucket indices and the row are clamped rather than trusted.
		if s.Chiplet < 0 || s.Chiplet >= len(rows) {
			continue
		}
		lo := int(s.StartSec / t.TotalSec * float64(width))
		hi := int(s.EndSec / t.TotalSec * float64(width))
		if lo < 0 {
			lo = 0
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		mark := byte('A' + s.Model%26)
		for x := lo; x < hi; x++ {
			rows[s.Chiplet][x] = mark
		}
	}
	for c, row := range rows {
		fmt.Fprintf(&b, "c%-2d |%s|\n", c, row)
	}
	return b.String()
}

// chromeEvent is one complete ("X" phase) trace event.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace exports the timeline in the Chrome trace-event JSON array
// format: chiplets appear as threads, stages as complete events.
func (t *Timeline) ChromeTrace() ([]byte, error) {
	events := make([]chromeEvent, 0, len(t.Spans))
	for _, s := range t.Spans {
		events = append(events, chromeEvent{
			Name: s.Label,
			Cat:  fmt.Sprintf("window%d", s.Window),
			Ph:   "X",
			Ts:   s.StartSec * 1e6,
			Dur:  (s.EndSec - s.StartSec) * 1e6,
			PID:  0,
			TID:  s.Chiplet,
			Args: map[string]string{
				"model":  fmt.Sprintf("%d", s.Model),
				"passes": fmt.Sprintf("%d", s.Passes),
			},
		})
	}
	return json.MarshalIndent(events, "", "  ")
}

// MaxTraceRows bounds the row index (thread id) accepted from an
// imported trace: each row costs render memory, so an arbitrary TID in
// untrusted JSON is a resource lever rather than a timeline. Genuine
// exports index rows by chiplet or by retained request, both far below
// this.
const MaxTraceRows = 1 << 20

// ParseChromeTrace reconstructs a Timeline from a ChromeTrace export:
// the inverse mapping (threads back to chiplets, complete events back to
// spans, categories back to window indices). TotalSec is the last span
// end and Chiplets the highest thread id plus one — a timeline whose
// trailing chiplets were idle round-trips with a smaller Chiplets count.
func ParseChromeTrace(data []byte) (*Timeline, error) {
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	tl := &Timeline{}
	for i, e := range events {
		if e.Ph != "X" {
			return nil, fmt.Errorf("trace: parse: event %d has phase %q, want complete (X)", i, e.Ph)
		}
		// NaN compares false against every bound, so non-finite times
		// must be rejected explicitly or they sail through the range
		// checks and break span ordering downstream.
		if math.IsNaN(e.Ts) || math.IsInf(e.Ts, 0) || e.Ts < 0 {
			return nil, fmt.Errorf("trace: parse: event %d timestamp %v outside [0, +inf)", i, e.Ts)
		}
		if math.IsNaN(e.Dur) || math.IsInf(e.Dur, 0) || e.Dur < 0 {
			return nil, fmt.Errorf("trace: parse: event %d duration %v outside [0, +inf)", i, e.Dur)
		}
		if e.TID < 0 || e.TID >= MaxTraceRows {
			return nil, fmt.Errorf("trace: parse: event %d thread id %d outside [0, %d)", i, e.TID, MaxTraceRows)
		}
		s := Span{
			Chiplet:  e.TID,
			Label:    e.Name,
			StartSec: e.Ts / 1e6,
			EndSec:   (e.Ts + e.Dur) / 1e6,
		}
		if _, err := fmt.Sscanf(e.Cat, "window%d", &s.Window); err != nil {
			return nil, fmt.Errorf("trace: parse: event %d category %q is not a window", i, e.Cat)
		}
		if v, ok := e.Args["model"]; ok {
			if _, err := fmt.Sscanf(v, "%d", &s.Model); err != nil {
				return nil, fmt.Errorf("trace: parse: event %d model %q: %w", i, v, err)
			}
		}
		if v, ok := e.Args["passes"]; ok {
			if _, err := fmt.Sscanf(v, "%d", &s.Passes); err != nil {
				return nil, fmt.Errorf("trace: parse: event %d passes %q: %w", i, v, err)
			}
		}
		if s.EndSec > tl.TotalSec {
			tl.TotalSec = s.EndSec
		}
		if s.Chiplet+1 > tl.Chiplets {
			tl.Chiplets = s.Chiplet + 1
		}
		tl.Spans = append(tl.Spans, s)
	}
	sort.SliceStable(tl.Spans, func(i, j int) bool {
		if tl.Spans[i].StartSec != tl.Spans[j].StartSec {
			return tl.Spans[i].StartSec < tl.Spans[j].StartSec
		}
		return tl.Spans[i].Chiplet < tl.Spans[j].Chiplet
	})
	return tl, nil
}
