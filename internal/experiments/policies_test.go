package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"example.com/scar/internal/online"
)

func TestPoliciesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("policies sweep schedules two AR/VR scenarios")
	}
	s := fastSuite()
	res, err := s.policiesSweep(t.Context(), 300)
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if got, want := len(res.Policies), len(online.PolicyNames()); got != want {
		t.Fatalf("policies = %d, want %d", got, want)
	}
	for _, ps := range res.Policies {
		if len(ps.Points) != len(onlineSweepLoads) {
			t.Fatalf("%s: points = %d, want %d", ps.Policy, len(ps.Points), len(onlineSweepLoads))
		}
	}
	fifo, sw := res.Sweep("fifo"), res.Sweep("switch-aware")
	if fifo == nil || sw == nil {
		t.Fatal("fifo or switch-aware sweep missing")
	}
	for pi := range fifo.Points {
		f, w := fifo.Points[pi], sw.Points[pi]
		// Identical arrival streams across policies: same request count.
		if f.Requests != w.Requests {
			t.Errorf("load %.2f: fifo simulated %d requests, switch-aware %d",
				f.OfferedLoad, f.Requests, w.Requests)
		}
		if w.ScheduleSwitches >= f.ScheduleSwitches {
			t.Errorf("load %.2f: switch-aware switched %d times, fifo %d",
				f.OfferedLoad, w.ScheduleSwitches, f.ScheduleSwitches)
		}
	}
	// The experiment's headline: amortizing reconfigurations wins once
	// the package saturates. Compare the highest-load operating points
	// on SLA attainment.
	last := len(fifo.Points) - 1
	var fifoSLA, swSLA float64
	for _, pi := range []int{last - 1, last} {
		fifoSLA += fifo.Points[pi].SLAAttainment
		swSLA += sw.Points[pi].SLAAttainment
	}
	if swSLA <= fifoSLA {
		t.Errorf("switch-aware high-load SLA %v not above fifo's %v", swSLA, fifoSLA)
	}

	// Determinism: a second sweep is bit-identical.
	res2, err := s.policiesSweep(t.Context(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("two sweeps with the same seed differ")
	}

	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Dispatch-policy sweep", "policy fifo", "policy edf", "policy switch-aware", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back PoliciesResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if len(back.Policies) != len(res.Policies) {
		t.Error("JSON round-trip lost policies")
	}
}
