package main

import (
	"sync"
	"time"

	"example.com/scar/internal/trace"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share op; parent is the enclosing span's id (0 at the top).
type span struct {
	id, parent, op int
	layer, name    string
	start, end     time.Duration // since the recorder's epoch
}

// recorder holds a traced run's spans in memory until the run ends. A
// nil recorder records nothing, so untraced runs call it unconditionally.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one finished span and returns its id (0 when r is nil).
func (r *recorder) add(parent, op int, layer, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		id: id, parent: parent, op: op, layer: layer, name: name,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch),
	})
	return id
}

// snapshot returns a copy of the recorded spans, in id order.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of it that its child spans cover. Children of one span never
// overlap in this benchmark (each is a sequential call), so covering time
// is their summed duration, clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] += s.end - s.start
	}
	for _, s := range spans {
		if s.parent != 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerRows fixes each layer's row in the Chrome export, so a viewer shows
// one thread per layer.
var layerRows = []string{"bench", "loadgen", "http", "serve", "online", "core", "eval"}

// chromeTimeline converts spans to the repository's timeline type for the
// Chrome trace export: the row is the layer, the window index the op id,
// and the label "layer.name".
func chromeTimeline(spans []span) *trace.Timeline {
	rows := make(map[string]int, len(layerRows))
	for i, l := range layerRows {
		rows[l] = i
	}
	out := make([]trace.Span, 0, len(spans))
	for _, s := range spans {
		out = append(out, trace.Span{
			Chiplet:  rows[s.layer],
			Window:   s.op,
			Label:    s.layer + "." + s.name,
			StartSec: s.start.Seconds(),
			EndSec:   s.end.Seconds(),
		})
	}
	return trace.FromSpans(out)
}

// spanDurations returns the durations, in milliseconds, of the spans of
// one layer and name.
func spanDurations(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.layer == layer && s.name == name {
			out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return out
}
