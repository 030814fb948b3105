package online

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAdmissionValidate(t *testing.T) {
	cases := []struct {
		name string
		adm  Admission
		want string // substring of the error, "" = valid
	}{
		{"zero value", Admission{}, ""},
		{"bounded queue", Admission{MaxQueueDepth: 4}, ""},
		{"watermarks", Admission{HighWatermark: 4, LowWatermark: 1}, ""},
		{"watermarks at bound", Admission{MaxQueueDepth: 4, HighWatermark: 4}, ""},
		{"negative depth", Admission{MaxQueueDepth: -1}, "negative admission queue depth"},
		{"negative high", Admission{HighWatermark: -2}, "negative admission watermark"},
		{"negative low", Admission{HighWatermark: 2, LowWatermark: -1}, "negative admission watermark"},
		{"low without high", Admission{LowWatermark: 3}, "without a high watermark"},
		{"low above high", Admission{HighWatermark: 2, LowWatermark: 3}, "above high watermark"},
		{"high above bound", Admission{MaxQueueDepth: 2, HighWatermark: 3}, "above queue bound"},
	}
	for _, tc := range cases {
		err := tc.adm.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestShedderByName(t *testing.T) {
	for _, name := range append(ShedderNames(), "") {
		sh, err := ShedderByName(name)
		if err != nil {
			t.Fatalf("ShedderByName(%q): %v", name, err)
		}
		if name != "" && sh.Name() != name {
			t.Errorf("ShedderByName(%q).Name() = %q", name, sh.Name())
		}
	}
	if _, err := ShedderByName("random-early"); err == nil {
		t.Error("unknown shedder accepted")
	}
}

func TestDropTailFollowsBackpressure(t *testing.T) {
	arr := Queued{Class: 0, ArrivalSec: 1}
	q := [][]Queued{{{Class: 0}, {Class: 0}}}
	view := AdmissionView{Packages: 1, Classes: []ShedClassView{{ServiceSec: 1, MaxWaitSec: 0.1}}}
	if (DropTail{}).Shed(arr, q, view) {
		t.Error("drop-tail shed while disengaged")
	}
	view.Engaged = true
	if !(DropTail{}).Shed(arr, q, view) {
		t.Error("drop-tail admitted while engaged")
	}
}

func TestDeadlineAwareShedUnits(t *testing.T) {
	classes := []ShedClassView{
		{ServiceSec: 1.0, MaxWaitSec: 0.5},
		{ServiceSec: 2.0, MaxWaitSec: math.Inf(1)},
	}
	arr := Queued{Class: 0, ArrivalSec: 10}
	cases := []struct {
		name    string
		sh      DeadlineAware
		arr     Queued
		waiting [][]Queued
		view    AdmissionView
		want    bool
	}{
		{
			name: "idle fleet, empty queue: admitted",
			arr:  arr,
			view: AdmissionView{Packages: 1, NowSec: 10, EarliestFreeSec: 9, Classes: classes},
			want: false,
		},
		{
			name: "in-service residual alone busts the budget",
			arr:  arr,
			view: AdmissionView{Packages: 1, NowSec: 10, EarliestFreeSec: 10.6, Classes: classes},
			want: true,
		},
		{
			name:    "queue backlog busts the budget",
			arr:     arr,
			waiting: [][]Queued{{{Class: 0}}},
			view:    AdmissionView{Packages: 1, NowSec: 10, EarliestFreeSec: 10, Classes: classes},
			want:    true,
		},
		{
			name:    "backlog spread over replicas fits",
			arr:     Queued{Class: 0, ArrivalSec: 10},
			waiting: [][]Queued{{{Class: 0}}}, // 1s of demand over 4 replicas = 0.25s implied wait
			view:    AdmissionView{Packages: 4, NowSec: 10, EarliestFreeSec: 10, Classes: classes},
			want:    false,
		},
		{
			// 3 x 1s + 2 x 2s = 7s of demand over 14 replicas: an implied
			// wait of exactly the 0.5s budget still fits.
			name:    "two-class backlog just inside the budget",
			arr:     arr,
			waiting: [][]Queued{{{Class: 0, Seq: 0}, {Class: 0, Seq: 1}, {Class: 0, Seq: 2}}, {{Class: 1, Seq: 0}, {Class: 1, Seq: 1}}},
			view:    AdmissionView{Packages: 14, NowSec: 10, EarliestFreeSec: 10, Classes: classes},
			want:    false,
		},
		{
			// The same backlog behind a 1ms in-service residual.
			name:    "two-class backlog just outside the budget",
			arr:     arr,
			waiting: [][]Queued{{{Class: 0, Seq: 0}, {Class: 0, Seq: 1}, {Class: 0, Seq: 2}}, {{Class: 1, Seq: 0}, {Class: 1, Seq: 1}}},
			view:    AdmissionView{Packages: 14, NowSec: 10, EarliestFreeSec: 10.001, Classes: classes},
			want:    true,
		},
		{
			name:    "unbounded class never shed",
			arr:     Queued{Class: 1, ArrivalSec: 10},
			waiting: [][]Queued{{{Class: 0}, {Class: 0}}, {{Class: 1}}},
			view:    AdmissionView{Packages: 1, NowSec: 10, EarliestFreeSec: 99, Classes: classes},
			want:    false,
		},
		{
			name: "margin converts a fit into a shed",
			sh:   DeadlineAware{MarginSec: 0.45},
			arr:  arr,
			view: AdmissionView{Packages: 1, NowSec: 10, EarliestFreeSec: 10.1, Classes: classes},
			want: true,
		},
	}
	for _, tc := range cases {
		if got := tc.sh.Shed(tc.arr, tc.waiting, tc.view); got != tc.want {
			t.Errorf("%s: Shed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// overloadConfig drives the rig class at twice its service rate — a
// sustained 2x overload — with the deadline pinned to 3x its own
// service time so the test is scale-free: unprotected, the queue (and
// the wait of later arrivals) grows far past the budget within the
// horizon; protected, only requests whose implied wait fits are served.
func overloadConfig(t *testing.T, adm *Admission) (Config, float64) {
	t.Helper()
	c := mustClass(t, "hot", nil, 0)
	svc := c.Metrics.LatencySec
	c.Deadlines = map[int]float64{0: 3 * svc}
	c.Arrivals = Poisson{RatePerSec: 2 / svc, Seed: 42}
	return Config{
		Classes:    []Class{c},
		HorizonSec: 400 * svc / 2, // ~400 arrivals
		Admission:  adm,
	}, svc
}

func TestHardQueueBoundSheds(t *testing.T) {
	cfg, _ := overloadConfig(t, &Admission{MaxQueueDepth: 2})
	rep, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShedRequests == 0 {
		t.Fatal("2x overload against a depth-2 queue shed nothing")
	}
	if rep.ShedByReason[ReasonQueueFull] != rep.ShedRequests {
		t.Errorf("shed reasons = %v, want all %q", rep.ShedByReason, ReasonQueueFull)
	}
	if rep.MaxQueueDepth > 3 {
		// Depth 2 waiting + the arrival screened at the dispatch instant
		// that pops one: the waiting queue never exceeds bound+1 even
		// transiently, and the post-pop depth never exceeds the bound.
		t.Errorf("MaxQueueDepth = %d under a hard bound of 2", rep.MaxQueueDepth)
	}
	if rep.OfferedRequests != rep.Requests+rep.ShedRequests {
		t.Errorf("offered %d != served %d + shed %d", rep.OfferedRequests, rep.Requests, rep.ShedRequests)
	}
	cr := rep.PerClass[0]
	if cr.Offered != cr.Requests+cr.Shed || cr.Shed != rep.ShedRequests {
		t.Errorf("per-class accounting %+v does not reconcile with report totals", cr)
	}
	if len(rep.Shed) != rep.ShedRequests {
		t.Errorf("len(Shed) = %d, want %d", len(rep.Shed), rep.ShedRequests)
	}
}

func TestWatermarkHysteresis(t *testing.T) {
	// Trace: a burst of 6 simultaneous arrivals (queue climbs through
	// the high watermark at 3), then arrivals spaced past the drain so
	// backpressure disengages at the low watermark, then a second burst.
	svc := mustClass(t, "w", nil, 0).Metrics.LatencySec
	times := []float64{0, 0, 0, 0, 0, 0}
	quiet := 10 * svc
	times = append(times, quiet, quiet, quiet, quiet, quiet, quiet)
	tr, err := NewTrace(times)
	if err != nil {
		t.Fatal(err)
	}
	c := mustClass(t, "w", tr, 0)
	rep, err := Simulate(context.Background(), Config{
		Classes:    []Class{c},
		HorizonSec: 100 * svc,
		Admission:  &Admission{HighWatermark: 3, LowWatermark: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BackpressureEngagements != 2 {
		t.Errorf("BackpressureEngagements = %d, want 2 (one per burst)", rep.BackpressureEngagements)
	}
	// Each burst: arrivals screening at queue depths 0,1,2 are admitted,
	// the depth-3 screen engages backpressure and drop-tail sheds the
	// rest of the burst (depths 3,3,3 — the dispatch at t=0 pops one).
	if rep.ShedRequests != 6 {
		t.Errorf("ShedRequests = %d, want 6", rep.ShedRequests)
	}
	if rep.ShedByReason["drop-tail"] != 6 {
		t.Errorf("ShedByReason = %v, want 6 drop-tail", rep.ShedByReason)
	}
	if rep.Requests != 6 {
		t.Errorf("Requests = %d, want 6", rep.Requests)
	}
}

func TestDeadlineAwareProtectsAcceptedSLA(t *testing.T) {
	baseCfg, svc := overloadConfig(t, nil)
	unprotected, err := Simulate(context.Background(), baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	protCfg, _ := overloadConfig(t, &Admission{
		Shedder: DeadlineAware{MarginSec: 0.1 * svc},
	})
	protected, err := Simulate(context.Background(), protCfg)
	if err != nil {
		t.Fatal(err)
	}
	if unprotected.SLAAttainment > 0.5 {
		t.Fatalf("unprotected 2x overload should collapse, got SLA %.3f", unprotected.SLAAttainment)
	}
	if protected.SLAAttainment < 0.9 {
		t.Errorf("deadline-aware accepted SLA = %.3f, want >= 0.9", protected.SLAAttainment)
	}
	if protected.ShedRequests == 0 {
		t.Error("deadline-aware shed nothing at 2x overload")
	}
	if protected.OfferedRequests != unprotected.OfferedRequests {
		t.Errorf("offered load differs: %d vs %d (admission must not change arrivals)",
			protected.OfferedRequests, unprotected.OfferedRequests)
	}
	// Shedding bounds the queue the hard bound never saw.
	if protected.MaxQueueDepth >= unprotected.MaxQueueDepth {
		t.Errorf("deadline-aware MaxQueueDepth %d should be far below unprotected %d",
			protected.MaxQueueDepth, unprotected.MaxQueueDepth)
	}
}

func TestSheddingDeterministicReplay(t *testing.T) {
	run := func() *Report {
		cfg, svc := overloadConfig(t, nil)
		cfg.Admission = &Admission{
			MaxQueueDepth: 8,
			HighWatermark: 4,
			LowWatermark:  1,
			Shedder:       DeadlineAware{MarginSec: 0.1 * svc},
		}
		rep, err := Simulate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shedding simulation not bit-identical across reruns")
	}
	if len(a.Shed) == 0 {
		t.Fatal("expected sheds under 2x overload")
	}
}

func TestAllShedRun(t *testing.T) {
	// A margin beyond any deadline budget sheds every single arrival:
	// the report must stay finite and reconciled with zero outcomes.
	cfg, _ := overloadConfig(t, &Admission{
		Shedder: DeadlineAware{MarginSec: 1e9},
	})
	rep, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || len(rep.Outcomes) != 0 {
		t.Fatalf("all-shed run served %d requests", rep.Requests)
	}
	if rep.OfferedRequests == 0 || rep.ShedRequests != rep.OfferedRequests {
		t.Fatalf("offered %d / shed %d, want all shed", rep.OfferedRequests, rep.ShedRequests)
	}
	if rep.SLAAttainment != 1 {
		t.Errorf("SLAAttainment = %v, want 1 (no checks ran)", rep.SLAAttainment)
	}
	for name, v := range map[string]float64{
		"MeanWaitSec":    rep.MeanWaitSec,
		"MeanLatencySec": rep.MeanLatencySec,
		"MaxLatencySec":  rep.MaxLatencySec,
		"MakespanSec":    rep.MakespanSec,
		"MeanQueueDepth": rep.MeanQueueDepth,
		"Utilization":    rep.Utilization,
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("%s = %v, want 0 on an all-shed run", name, v)
		}
	}
	if rep.MaxQueueDepth != 0 {
		t.Errorf("MaxQueueDepth = %d, want 0", rep.MaxQueueDepth)
	}
}

func TestSimulateRejectsBadAdmission(t *testing.T) {
	cfg, _ := overloadConfig(t, &Admission{MaxQueueDepth: -3})
	if _, err := Simulate(context.Background(), cfg); err == nil {
		t.Fatal("negative queue depth accepted")
	}
}

func TestMaxQueueDepthEdgeCases(t *testing.T) {
	if got := maxQueueDepth(nil); got != 0 {
		t.Errorf("maxQueueDepth(nil) = %d, want 0", got)
	}
	if got := maxQueueDepth([]RequestOutcome{}); got != 0 {
		t.Errorf("maxQueueDepth(empty) = %d, want 0", got)
	}
	// Simultaneous arrival/busy-start tie: the pop sorts first, so a
	// request picked up the instant it arrives never counts as queued —
	// even interleaved with a push at the same timestamp.
	ties := []RequestOutcome{
		{ArrivalSec: 1, BusyStartSec: 1},
		{ArrivalSec: 1, BusyStartSec: 2},
	}
	if got := maxQueueDepth(ties); got != 1 {
		t.Errorf("maxQueueDepth(ties) = %d, want 1", got)
	}
	// Three simultaneous arrivals, one served immediately: peak is the
	// two that actually wait.
	burst := []RequestOutcome{
		{ArrivalSec: 5, BusyStartSec: 5},
		{ArrivalSec: 5, BusyStartSec: 6},
		{ArrivalSec: 5, BusyStartSec: 7},
	}
	if got := maxQueueDepth(burst); got != 2 {
		t.Errorf("maxQueueDepth(burst) = %d, want 2", got)
	}
}

// BenchmarkSimulateDeadlineAwareDeep screens deep queues: five rig
// classes whose only deadline is model 0's one-second frame budget
// (slack 0), Poisson arrivals at 1.5x the package's capacity and 2,000
// requests per class, under DeadlineAware{}. Requests queue far behind
// the head before the budget binds, so each arrival's screening sees a
// deep backlog.
func BenchmarkSimulateDeadlineAwareDeep(b *testing.B) {
	const nClasses = 5
	classes := make([]Class, nClasses)
	for ci := range classes {
		classes[ci] = mustClass(b, fmt.Sprintf("c%d", ci), nil, 0)
		rate := 1.5 / (nClasses * classes[ci].Metrics.LatencySec)
		classes[ci].Arrivals = Poisson{RatePerSec: rate, Seed: int64(ci + 1)}
	}
	cfg := Config{
		Classes:             classes,
		MaxRequestsPerClass: 2000,
		Admission:           &Admission{Shedder: DeadlineAware{}},
	}
	var rep *Report
	for b.Loop() {
		var err error
		if rep, err = Simulate(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.MaxQueueDepth), "max-depth")
	b.ReportMetric(float64(rep.ShedRequests), "shed")
}
