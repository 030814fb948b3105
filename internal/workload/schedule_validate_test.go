package workload_test

import (
	"fmt"
	"math/rand"
	"testing"

	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// mapValidate is the map-based schedule check eval.Schedule.Validate
// replaced: every segment's range is expanded to its layer references,
// window by window, and the windows must pass ValidatePartition against
// the scenario's layers and ValidateModelOrder.
func mapValidate(s *eval.Schedule, sc *workload.Scenario, m *mcm.MCM) error {
	var parts [][]workload.LayerRef
	for wi, w := range s.Windows {
		var winRefs []workload.LayerRef
		for _, mi := range w.Models() {
			for _, seg := range w.ModelSegments(mi) {
				if seg.First > seg.Last {
					return fmt.Errorf("window %d segment %v has inverted range", wi, seg)
				}
				if seg.Chiplet < 0 || seg.Chiplet >= m.NumChiplets() {
					return fmt.Errorf("window %d segment %v references chiplet outside MCM", wi, seg)
				}
				winRefs = append(winRefs, seg.Refs()...)
			}
		}
		parts = append(parts, winRefs)
	}
	if err := workload.ValidatePartition(sc.AllRefs(), parts); err != nil {
		return err
	}
	return workload.ValidateModelOrder(parts)
}

// randomSchedule draws a valid schedule of sc: each model's layers are
// cut into consecutive chunks on ascending windows, each chunk into one
// to three segments on random chiplets, and every window's segments are
// shuffled.
func randomSchedule(rng *rand.Rand, sc *workload.Scenario, chiplets int) *eval.Schedule {
	s := &eval.Schedule{Windows: make([]eval.TimeWindow, 1+rng.Intn(4))}
	for mi, model := range sc.Models {
		first := 0
		for wi := range s.Windows {
			if first == len(model.Layers) {
				break
			}
			last := len(model.Layers) - 1
			if wi < len(s.Windows)-1 {
				last = first - 1 + rng.Intn(len(model.Layers)-first+1)
			}
			for first <= last {
				end := first + rng.Intn(min(3, last-first+1))
				if rng.Intn(3) == 0 {
					end = last
				}
				s.Windows[wi].Segments = append(s.Windows[wi].Segments,
					eval.Segment{Model: mi, First: first, Last: end, Chiplet: rng.Intn(chiplets)})
				first = end + 1
			}
		}
	}
	for wi := range s.Windows {
		segs := s.Windows[wi].Segments
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	}
	return s
}

// mutations break a valid schedule in one way each; a mutation that
// finds nothing to break reports false.
var mutations = []struct {
	kind   string
	mutate func(rng *rand.Rand, s *eval.Schedule, sc *workload.Scenario, chiplets int) bool
}{
	{"gap", func(rng *rand.Rand, s *eval.Schedule, _ *workload.Scenario, _ int) bool {
		w, i := pick(rng, s)
		if i < 0 {
			return false
		}
		if seg := &w.Segments[i]; seg.First < seg.Last {
			seg.First++
		} else {
			w.Segments = append(w.Segments[:i], w.Segments[i+1:]...)
		}
		return true
	}},
	{"overlap", func(rng *rand.Rand, s *eval.Schedule, _ *workload.Scenario, _ int) bool {
		w, i := pick(rng, s)
		if i < 0 {
			return false
		}
		to := &s.Windows[rng.Intn(len(s.Windows))]
		to.Segments = append(to.Segments, w.Segments[i])
		return true
	}},
	{"reorder", func(rng *rand.Rand, s *eval.Schedule, _ *workload.Scenario, _ int) bool {
		i, j := rng.Intn(len(s.Windows)), rng.Intn(len(s.Windows))
		s.Windows[i], s.Windows[j] = s.Windows[j], s.Windows[i]
		return i != j
	}},
	{"unknown model", func(rng *rand.Rand, s *eval.Schedule, sc *workload.Scenario, _ int) bool {
		w, i := pick(rng, s)
		if i < 0 {
			return false
		}
		w.Segments[i].Model = []int{-1, len(sc.Models)}[rng.Intn(2)]
		return true
	}},
	{"layer past L", func(rng *rand.Rand, s *eval.Schedule, sc *workload.Scenario, _ int) bool {
		w, i := pick(rng, s)
		if i < 0 {
			return false
		}
		seg := &w.Segments[i]
		seg.Last = len(sc.Models[seg.Model].Layers) + rng.Intn(2)
		return true
	}},
	{"inverted range", func(rng *rand.Rand, s *eval.Schedule, _ *workload.Scenario, _ int) bool {
		w, i := pick(rng, s)
		if i < 0 {
			return false
		}
		seg := &w.Segments[i]
		seg.First, seg.Last = seg.Last+1, seg.First
		return true
	}},
	{"chiplet out of range", func(rng *rand.Rand, s *eval.Schedule, _ *workload.Scenario, chiplets int) bool {
		w, i := pick(rng, s)
		if i < 0 {
			return false
		}
		w.Segments[i].Chiplet = []int{-1, chiplets}[rng.Intn(2)]
		return true
	}},
}

// pick returns a random window of the schedule and the index of a random
// segment in it, or -1 if the window has none.
func pick(rng *rand.Rand, s *eval.Schedule) (*eval.TimeWindow, int) {
	w := &s.Windows[rng.Intn(len(s.Windows))]
	if len(w.Segments) == 0 {
		return w, -1
	}
	return w, rng.Intn(len(w.Segments))
}

// Schedule.Validate's per-model cursors accept and reject exactly the
// schedules the map-based oracle does: random valid schedules, and each
// broken by a gap, an overlap, a window reordering, an unknown model, a
// layer past the model's end, an inverted range or a chiplet out of
// range. Every mutation kind must have been rejected at least once.
func TestScheduleValidateMatchesMapOracle(t *testing.T) {
	pkg := mcm.HetCB(3, 3, maestro.DefaultEdgeChiplet())
	chiplets := pkg.NumChiplets()
	rng := rand.New(rand.NewSource(11))
	rejected := map[string]int{}
	trials := 4000
	if testing.Short() {
		trials = 1000
	}
	for trial := range trials {
		var models []workload.Model
		for mi := range 1 + rng.Intn(4) {
			layers := make([]workload.Layer, 1+rng.Intn(8))
			for li := range layers {
				layers[li] = workload.GEMM(fmt.Sprintf("m%dl%d", mi, li), 8, 16, 16)
			}
			models = append(models, workload.NewModel(fmt.Sprintf("m%d", mi), 1, layers))
		}
		sc := workload.NewScenario("s", models...)
		s := randomSchedule(rng, &sc, chiplets)
		if err := s.Validate(&sc, pkg); err != nil {
			t.Fatalf("trial %d: valid schedule %v rejected: %v", trial, s.Windows, err)
		}
		if err := mapValidate(s, &sc, pkg); err != nil {
			t.Fatalf("trial %d: oracle rejects valid schedule %v: %v", trial, s.Windows, err)
		}
		for _, m := range mutations {
			mut := &eval.Schedule{Windows: make([]eval.TimeWindow, len(s.Windows))}
			for wi, w := range s.Windows {
				mut.Windows[wi] = eval.TimeWindow{Index: w.Index, Segments: append([]eval.Segment(nil), w.Segments...)}
			}
			if !m.mutate(rng, mut, &sc, chiplets) {
				continue
			}
			got, want := mut.Validate(&sc, pkg), mapValidate(mut, &sc, pkg)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d, %s: Validate %v, oracle %v on %v", trial, m.kind, got, want, mut.Windows)
			}
			if got != nil {
				rejected[m.kind]++
			}
		}
	}
	for _, m := range mutations {
		if rejected[m.kind] == 0 {
			t.Errorf("no %s mutation was ever rejected", m.kind)
		}
	}
	t.Logf("rejections per mutation: %v", rejected)
}
