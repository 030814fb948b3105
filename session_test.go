package scar_test

import (
	"context"
	"testing"
	"time"

	scar "example.com/scar"
)

// TestSessionUnifiesPerPairSurface: every per-pair operation runs on the
// session's one shared compiled state.
func TestSessionUnifiesPerPairSurface(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc, _ := scar.ScenarioByNumber(1)
	pkg, _ := scar.MCMByName("simba-nvd", 3, 3, scar.DatacenterChiplet())
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ses.Schedule(context.Background(), scar.LatencyObjective())
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate agrees with the search's own metrics.
	m, err := ses.Evaluate(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if m.EDP != res.Metrics.EDP {
		t.Errorf("session Evaluate EDP %v != search %v", m.EDP, res.Metrics.EDP)
	}

	// Baselines run on the session state.
	if _, _, err := ses.Standalone(); err != nil {
		t.Errorf("Standalone: %v", err)
	}
	if _, _, err := ses.NNBaton(); err != nil {
		t.Errorf("NNBaton: %v", err)
	}

	// LinkLoads and Timeline run on the session state.
	var total int64
	for _, w := range res.Schedule.Windows {
		for _, bytes := range ses.LinkLoads(w) {
			total += bytes
		}
	}
	if total == 0 {
		t.Error("no NoP traffic reported by session LinkLoads on a pipelined latency schedule")
	}
	if tl := ses.Timeline(res.Schedule); len(tl.Spans) == 0 {
		t.Error("session Timeline has no spans")
	}

	// Mismatched request inputs are rejected.
	other, _ := scar.ScenarioByNumber(2)
	if _, err := ses.ScheduleRequest(context.Background(), &scar.Request{
		Scenario: &other, Objective: scar.EDPObjective(),
	}); err == nil {
		t.Error("session accepted a request for a different scenario")
	}
}

// TestSessionScheduleHonorsDeadline: the Session path inherits anytime
// cancellation.
func TestSessionScheduleHonorsDeadline(t *testing.T) {
	sched := scar.NewScheduler(scar.DefaultOptions())
	sc, _ := scar.ScenarioByNumber(6)
	pkg, _ := scar.MCMByName("het-sides", 3, 3, scar.EdgeChiplet())
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := ses.Schedule(ctx, scar.EDPObjective())
	if err == nil && !res.Partial {
		t.Error("1ms deadline returned a full result on a paper-budget search")
	}
}
