// Package eval defines the schedule representation of the SCAR paper
// (Definitions 4, 5 and 9: time windows, segments, schedule instances) and
// evaluates schedules on an MCM using the performance model of Section
// III-E: per-layer costs from the MAESTRO-style database, inter-chiplet
// and off-chip communication from internal/comm, inter-chiplet pipelining
// with mini-batches, window latency as the max over per-model pipelines,
// and latency/energy/EDP aggregation.
package eval

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// Segment is a contiguous run of one model's layers mapped to one chiplet
// for exclusive execution within a time window (Definition 5 plus its
// spatial/temporal mapping from Definition 7).
type Segment struct {
	// Model is the model index within the scenario.
	Model int
	// First and Last are the inclusive layer-index range of the run.
	First, Last int
	// Chiplet is the assigned chiplet ID.
	Chiplet int
	// Order is the execution order among segments sharing the chiplet
	// within the window (the temporal mapping j of Definition 7).
	Order int
}

// Refs expands the segment to its layer references.
func (s Segment) Refs() []workload.LayerRef {
	out := make([]workload.LayerRef, 0, s.Last-s.First+1)
	for i := s.First; i <= s.Last; i++ {
		out = append(out, workload.LayerRef{Model: s.Model, Index: i})
	}
	return out
}

// NumLayers returns the layer count of the segment.
func (s Segment) NumLayers() int { return s.Last - s.First + 1 }

// String renders the segment compactly.
func (s Segment) String() string {
	return fmt.Sprintf("m%d[%d-%d]@c%d#%d", s.Model, s.First, s.Last, s.Chiplet, s.Order)
}

// TimeWindow is one execution window (Definition 4): the set of segments
// scheduled in it.
type TimeWindow struct {
	Index    int
	Segments []Segment
}

// ModelSegments returns the window's segments for one model, ordered by
// layer range.
func (w TimeWindow) ModelSegments(model int) []Segment {
	var out []Segment
	for _, s := range w.Segments {
		if s.Model == model {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].First < out[j].First })
	return out
}

// Models returns the sorted model indices present in the window.
func (w TimeWindow) Models() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range w.Segments {
		if !seen[s.Model] {
			seen[s.Model] = true
			out = append(out, s.Model)
		}
	}
	sort.Ints(out)
	return out
}

// Schedule is a schedule instance (Definition 9): a valid time-window
// partitioning with segment mappings for each window.
type Schedule struct {
	Windows []TimeWindow
}

// AllSegments returns every segment across windows, window-major.
func (s *Schedule) AllSegments() []Segment {
	var out []Segment
	for _, w := range s.Windows {
		out = append(out, w.Segments...)
	}
	return out
}

// Validate checks the schedule against Theorems 1-2 and the mapping
// constraints: the windows' segments exactly partition the scenario's
// layers, each model's layers run in dependency order across and within
// windows, and every chiplet ID is within range. Windows are read in
// order and each window's segments by model, then by first layer; a
// per-model cursor holds the model's next unplaced layer, and every
// segment must start at its model's cursor. That rejects a gap, an
// overlap and a reordering alike, and at the end every cursor must have
// reached its model's layer count.
func (s *Schedule) Validate(sc *workload.Scenario, m *mcm.MCM) error {
	next := make([]int, len(sc.Models))
	var segs []Segment
	for wi, w := range s.Windows {
		segs = append(segs[:0], w.Segments...)
		slices.SortFunc(segs, func(a, b Segment) int {
			if c := cmp.Compare(a.Model, b.Model); c != 0 {
				return c
			}
			return cmp.Compare(a.First, b.First)
		})
		for _, seg := range segs {
			switch {
			case seg.First > seg.Last:
				return fmt.Errorf("eval: window %d segment %v has inverted range", wi, seg)
			case seg.Chiplet < 0 || seg.Chiplet >= m.NumChiplets():
				return fmt.Errorf("eval: window %d segment %v references chiplet outside MCM", wi, seg)
			case seg.Model < 0 || seg.Model >= len(sc.Models):
				return fmt.Errorf("eval: window %d segment %v references an unknown model", wi, seg)
			case seg.First != next[seg.Model]:
				return fmt.Errorf("eval: window %d segment %v does not start at model %d's next layer %d", wi, seg, seg.Model, next[seg.Model])
			case seg.Last >= len(sc.Models[seg.Model].Layers):
				return fmt.Errorf("eval: window %d segment %v runs past model %d's %d layers", wi, seg, seg.Model, len(sc.Models[seg.Model].Layers))
			}
			next[seg.Model] = seg.Last + 1
		}
	}
	for mi, model := range sc.Models {
		if next[mi] != len(model.Layers) {
			return fmt.Errorf("eval: model %d layer %d is not covered by any window", mi, next[mi])
		}
	}
	return nil
}

// NumWindows returns the window count.
func (s *Schedule) NumWindows() int { return len(s.Windows) }
