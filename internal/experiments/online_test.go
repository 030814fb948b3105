package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"example.com/scar/internal/models"
)

func TestOnlineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("online sweep schedules two AR/VR scenarios")
	}
	s := fastSuite()
	res, err := s.onlineSweep(t.Context(), 300)
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	if len(res.Points) != len(onlineSweepLoads) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(onlineSweepLoads))
	}
	if res.CapacityPerSec <= 0 {
		t.Fatal("non-positive capacity")
	}
	for i, c := range res.Classes {
		if c.ServiceSec <= 0 || c.EnergyJ <= 0 {
			t.Errorf("class %d: implausible %+v", i, c)
		}
		if c.SwitchInSec <= 0 || c.SwitchInSec >= c.ServiceSec {
			t.Errorf("class %d: switch-in %v outside (0, service %v)", i, c.SwitchInSec, c.ServiceSec)
		}
	}

	light, heavy := res.Points[0], res.Points[len(res.Points)-1]
	if light.SLAAttainment < heavy.SLAAttainment {
		t.Errorf("SLA should not improve with load: light %v, heavy %v",
			light.SLAAttainment, heavy.SLAAttainment)
	}
	if heavy.P99LatencySec <= light.P99LatencySec {
		t.Errorf("overload p99 %v should exceed light-load p99 %v",
			heavy.P99LatencySec, light.P99LatencySec)
	}
	if heavy.Utilization <= light.Utilization {
		t.Errorf("utilization should grow with load: %v -> %v",
			light.Utilization, heavy.Utilization)
	}
	for _, p := range res.Points {
		if p.Requests == 0 {
			t.Errorf("load %.2f simulated no requests", p.OfferedLoad)
		}
		if p.ScheduleSwitches == 0 {
			t.Errorf("load %.2f: two-class mix never switched schedules", p.OfferedLoad)
		}
		if p.Utilization < 0 || p.Utilization > 1+1e-9 {
			t.Errorf("load %.2f: utilization %v", p.OfferedLoad, p.Utilization)
		}
	}

	// The acceptance criterion: bit-identical results for a fixed seed.
	res2, err := s.onlineSweep(t.Context(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("two sweeps with the same seed differ")
	}

	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Online serving sweep") || !strings.Contains(buf.String(), "p99") {
		t.Errorf("Print output incomplete:\n%s", buf.String())
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back OnlineResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if len(back.Points) != len(res.Points) {
		t.Error("JSON round-trip lost points")
	}
}

func TestXRScenariosCarryDeadlines(t *testing.T) {
	// The online simulator's SLA scoring depends on the AR/VR scenarios
	// carrying XRBench frame rates.
	for n := 6; n <= 10; n++ {
		sc, err := models.ScenarioByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := scenarioModelsWithDeadlines(sc); got != len(sc.Models) {
			t.Errorf("scenario %d: %d/%d models carry frame rates", n, got, len(sc.Models))
		}
		for _, m := range sc.Models {
			if m.FPS != float64(m.Batch) {
				t.Errorf("scenario %d model %s: FPS %v != batch %d (batch = fps convention)",
					n, m.Name, m.FPS, m.Batch)
			}
			if d := m.DeadlineSec(); d != 1.0 {
				t.Errorf("scenario %d model %s: deadline %v, want the one-second frame budget", n, m.Name, d)
			}
		}
	}
	// Datacenter scenarios stay deadline-free.
	for n := 1; n <= 5; n++ {
		sc, err := models.ScenarioByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := scenarioModelsWithDeadlines(sc); got != 0 {
			t.Errorf("scenario %d: %d models unexpectedly carry frame rates", n, got)
		}
	}
}
