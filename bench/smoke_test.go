package main

import (
	"context"
	"testing"

	"example.com/scar/internal/trace"
)

// specFile is the benchmark definition at the repository root.
const specFile = "../BENCHMARK.json"

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesTheProgram(t *testing.T) {
	s := readSpec(t)
	same := func(what string, spec []specMetric, prog []metricDef) {
		if len(spec) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(spec), len(prog))
			return
		}
		for i := range spec {
			if spec[i].Name != prog[i].name || spec[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, spec[i].Name, spec[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced, and checks that each passes its output checks, emits every
// metric BENCHMARK.json names with its unit, and that a traced run's
// Chrome export parses back.
func TestWorkloadsSmoke(t *testing.T) {
	s := readSpec(t)
	modes := []bool{false, true}
	if testing.Short() {
		modes = []bool{true} // the traced run covers the most code
	}
	for _, w := range workloads {
		for _, traced := range modes {
			name := w.name + "/untraced"
			want := s.EndToEnd
			if traced {
				name, want = w.name+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := execute(context.Background(), w, config{seed: 3, seconds: 0.5, traced: traced, small: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("output checks failed: %v", res.Failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s [%s] emitted as %+v (present %t)", m.Name, m.Unit, got, ok)
					}
				}
				if !traced {
					return
				}
				if len(res.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				data, err := chromeTimeline(res.spans).ChromeTrace()
				if err != nil {
					t.Fatal(err)
				}
				tl, err := trace.ParseChromeTrace(data)
				if err != nil {
					t.Fatal(err)
				}
				if len(tl.Spans) != len(res.spans) {
					t.Errorf("Chrome export round-tripped %d of %d spans", len(tl.Spans), len(res.spans))
				}
			})
		}
	}
}
