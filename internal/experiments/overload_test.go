package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestOverloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("overload sweep schedules two AR/VR scenarios")
	}
	s := fastSuite()
	res, err := s.overloadSweep(t.Context(), 300)
	if err != nil {
		t.Fatalf("Overload: %v", err)
	}
	if got, want := len(res.Guards), len(overloadGuards); got != want {
		t.Fatalf("guards = %d, want %d", got, want)
	}
	for _, gs := range res.Guards {
		if len(gs.Points) != len(overloadSweepLoads) {
			t.Fatalf("%s: points = %d, want %d", gs.Guard.Name, len(gs.Points), len(overloadSweepLoads))
		}
		for _, p := range gs.Points {
			if p.Offered != p.Requests+p.Shed {
				t.Errorf("%s load %.2f: offered %d != served %d + shed %d",
					gs.Guard.Name, p.OfferedLoad, p.Offered, p.Requests, p.Shed)
			}
		}
	}
	raw, dt, da := res.Sweep("unprotected"), res.Sweep("drop-tail"), res.Sweep("deadline-aware")
	if raw == nil || dt == nil || da == nil {
		t.Fatal("a guard sweep is missing")
	}
	for pi := range raw.Points {
		// Identical arrival streams across guards: same offered count.
		if raw.Points[pi].Offered != da.Points[pi].Offered || raw.Points[pi].Offered != dt.Points[pi].Offered {
			t.Errorf("load %.2f: offered counts differ across guards (%d/%d/%d)",
				raw.Points[pi].OfferedLoad, raw.Points[pi].Offered,
				dt.Points[pi].Offered, da.Points[pi].Offered)
		}
	}
	if raw.Points[len(raw.Points)-1].Shed != 0 {
		t.Error("unprotected guard shed requests")
	}
	if dt.Points[len(dt.Points)-1].BackpressureEngagements == 0 {
		t.Error("drop-tail at 3x overload never engaged its watermarks")
	}
	if dt.Points[len(dt.Points)-1].MaxQueueDepth > overloadGuards[1].MaxQueueDepth {
		t.Error("drop-tail queue exceeded its hard bound")
	}

	// The experiment's headline: at 2x overload the deadline-aware
	// guard keeps its promises to admitted requests while the
	// unprotected queue dooms nearly all of them.
	rawAt2, daAt2 := raw.Point(2.0), da.Point(2.0)
	if rawAt2 == nil || daAt2 == nil {
		t.Fatal("2x operating point missing")
	}
	if rawAt2.AcceptedSLA > 0.5 {
		t.Errorf("unprotected SLA at 2x = %.3f, expected collapse", rawAt2.AcceptedSLA)
	}
	if daAt2.AcceptedSLA < 0.9 {
		t.Errorf("deadline-aware accepted SLA at 2x = %.3f, want >= 0.90", daAt2.AcceptedSLA)
	}
	if daAt2.GoodputPerSec <= rawAt2.GoodputPerSec {
		t.Errorf("deadline-aware goodput %.3f/s not above unprotected %.3f/s",
			daAt2.GoodputPerSec, rawAt2.GoodputPerSec)
	}

	// Determinism: a second sweep is bit-identical.
	res2, err := s.overloadSweep(t.Context(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("two sweeps with the same seed differ")
	}

	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Overload sweep", "guard unprotected", "guard drop-tail", "guard deadline-aware", "goodput/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back OverloadResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if len(back.Guards) != len(res.Guards) {
		t.Error("JSON round-trip lost guards")
	}
}
