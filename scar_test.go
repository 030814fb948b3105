package scar_test

import (
	"context"
	"strings"
	"testing"

	scar "example.com/scar"
)

func TestFacadeEndToEnd(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc := scar.NewScenario("demo",
		scar.NewModel("cnn", 2, []scar.Layer{
			scar.Conv("c0", 3, 32, 66, 66, 3, 2),
			scar.Conv("c1", 32, 64, 34, 34, 3, 1),
			scar.GEMM("fc", 1, 64, 10),
		}),
		scar.NewModel("lm", 1, []scar.Layer{
			scar.GEMM("g0", 64, 512, 2048),
			scar.GEMM("g1", 64, 2048, 512),
		}),
	)
	pkg, err := scar.MCMByName("het-cb", 3, 3, scar.DatacenterChiplet())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.EDPObjective()))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Metrics.EDP <= 0 {
		t.Errorf("EDP = %v", res.Metrics.EDP)
	}
	// Re-evaluating the returned schedule reproduces its metrics.
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ses.Evaluate(res.Schedule)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if again.EDP != res.Metrics.EDP {
		t.Errorf("re-evaluation EDP %v != %v", again.EDP, res.Metrics.EDP)
	}
}

func TestFacadeZooAndScenarios(t *testing.T) {
	if len(scar.ModelNames()) != 14 {
		t.Errorf("zoo size = %d, want 14", len(scar.ModelNames()))
	}
	m, err := scar.ModelByName("resnet50", 8)
	if err != nil || m.Batch != 8 {
		t.Errorf("ModelByName: %v %v", m.Batch, err)
	}
	for n := 1; n <= 10; n++ {
		if _, err := scar.ScenarioByNumber(n); err != nil {
			t.Errorf("ScenarioByNumber(%d): %v", n, err)
		}
	}
	if len(scar.DatacenterScenarios()) != 5 || len(scar.ARVRScenarios()) != 5 {
		t.Error("scenario sets wrong size")
	}
}

func TestFacadeBaselines(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc, _ := scar.ScenarioByNumber(1)
	pkg, _ := scar.MCMByName("simba-nvd", 3, 3, scar.DatacenterChiplet())
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}
	_, standalone, err := ses.Standalone()
	if err != nil {
		t.Fatalf("Standalone: %v", err)
	}
	_, nnbaton, err := ses.NNBaton()
	if err != nil {
		t.Fatalf("NNBaton: %v", err)
	}
	if standalone.LatencySec <= 0 || nnbaton.LatencySec <= 0 {
		t.Error("baselines produced non-positive latency")
	}
	// Sequential NN-baton cannot be faster than concurrent standalone.
	if nnbaton.LatencySec < standalone.LatencySec*0.999 {
		t.Errorf("NN-baton latency %v < standalone %v", nnbaton.LatencySec, standalone.LatencySec)
	}
}

func TestRenderPackage(t *testing.T) {
	pkg, _ := scar.MCMByName("het-sides", 3, 3, scar.DatacenterChiplet())
	out := scar.RenderPackage(pkg)
	if !strings.Contains(out, "NVD") || !strings.Contains(out, "SHI") {
		t.Errorf("render missing dataflows:\n%s", out)
	}
	if !strings.Contains(out, "M") {
		t.Error("render missing memory interfaces")
	}
}

func TestRenderScheduleAndOccupancy(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc, _ := scar.ScenarioByNumber(1)
	pkg, _ := scar.MCMByName("het-cb", 3, 3, scar.DatacenterChiplet())
	res, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	out := scar.RenderSchedule(&sc, pkg, res.Schedule, res.Metrics)
	if !strings.Contains(out, "gpt-l") || !strings.Contains(out, "window 0") {
		t.Errorf("schedule render incomplete:\n%s", out)
	}
	occ := scar.RenderOccupancy(&sc, pkg, res.Schedule.Windows[0])
	if !strings.Contains(occ, "A = gpt-l") {
		t.Errorf("occupancy render incomplete:\n%s", occ)
	}
}

func TestConfigRoundTripThroughFacade(t *testing.T) {
	sc, err := scar.ParseWorkload([]byte(`{
		"name": "w", "models": [{"zoo": "eyecod", "batch": 3}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := scar.ParseMCM([]byte(`{"pattern": "simba-nvd", "width": 2, "height": 2, "profile": "edge"}`))
	if err != nil {
		t.Fatal(err)
	}
	sched := scar.NewScheduler(scar.FastOptions())
	res, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.LatencyObjective()))
	if err != nil {
		t.Fatal(err)
	}
	data, err := scar.ExportSchedule(&sc, pkg, res.Schedule, res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "eyecod") {
		t.Error("export missing model name")
	}
}

func TestPerModelBoundThroughFacade(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc, _ := scar.ScenarioByNumber(10)
	pkg, _ := scar.MCMByName("het-cb", 3, 3, scar.EdgeChiplet())
	base, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Metrics.ModelLatency) != 2 {
		t.Fatalf("ModelLatency entries = %d, want 2", len(base.Metrics.ModelLatency))
	}
	// Impossible bound -> no feasible schedule.
	impossible := scar.CustomObjective("edp|bound",
		scar.PerModelLatencyBoundedEDP(map[int]float64{0: base.Metrics.ModelLatency[0] * 1e-6}))
	if _, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, impossible)); err == nil {
		t.Error("impossible per-model bound produced a schedule")
	}
	// Loose bound -> same result as unconstrained.
	loose := scar.CustomObjective("edp|loose",
		scar.PerModelLatencyBoundedEDP(map[int]float64{0: base.Metrics.ModelLatency[0] * 10}))
	res, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, loose))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.EDP != base.Metrics.EDP {
		t.Errorf("loose bound changed result: %v vs %v", res.Metrics.EDP, base.Metrics.EDP)
	}
}

func TestLinkLoadsThroughFacade(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc, _ := scar.ScenarioByNumber(1)
	pkg, _ := scar.MCMByName("simba-nvd", 3, 3, scar.DatacenterChiplet())
	res, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.LatencyObjective()))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, w := range res.Schedule.Windows {
		for link, bytes := range ses.LinkLoads(w) {
			if bytes <= 0 {
				t.Errorf("non-positive link load on %+v", link)
			}
			if pkg.Hops(link.From, link.To) != 1 {
				t.Errorf("link %+v not between adjacent chiplets", link)
			}
			total += bytes
		}
	}
	// The latency search pipelines the LMs, so some inter-chiplet
	// traffic must exist.
	if total == 0 {
		t.Error("no NoP traffic in a pipelined schedule")
	}
}

func TestAnalyzeLayerFacade(t *testing.T) {
	l := scar.GEMM("g", 128, 1024, 4096)
	n := scar.AnalyzeLayer(l, scar.NVDLA(), scar.DatacenterChiplet())
	s := scar.AnalyzeLayer(l, scar.ShiDianNao(), scar.DatacenterChiplet())
	if n.ComputeSeconds <= 0 || s.ComputeSeconds <= 0 {
		t.Fatal("non-positive layer costs")
	}
	if n.ComputeSeconds >= s.ComputeSeconds {
		t.Error("GEMM not faster on the weight-stationary dataflow")
	}
}

func TestScheduleOnCustomTopology(t *testing.T) {
	// A 2x3 package with a ring NoP — not expressible as a built-in
	// pattern — scheduled by the unchanged SCAR search.
	dfs := []scar.Dataflow{
		scar.NVDLA(), scar.ShiDianNao(), scar.NVDLA(),
		scar.ShiDianNao(), scar.NVDLA(), scar.ShiDianNao(),
	}
	links := [][2]int{{0, 1}, {1, 2}, {2, 5}, {5, 4}, {4, 3}, {3, 0}}
	pkg, err := scar.NewCustomMCM("ring-6", 3, 2, dfs, links, []int{0, 5}, scar.DatacenterChiplet())
	if err != nil {
		t.Fatal(err)
	}
	sc := scar.NewScenario("custom",
		scar.NewModel("cnn", 4, []scar.Layer{
			scar.Conv("c0", 3, 32, 66, 66, 3, 2),
			scar.Conv("c1", 32, 64, 34, 34, 3, 1),
		}),
		scar.NewModel("lm", 2, []scar.Layer{
			scar.GEMM("g0", 64, 512, 2048),
			scar.GEMM("g1", 64, 2048, 512),
		}),
	)
	res, err := scar.NewScheduler(scar.FastOptions()).Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.EDPObjective()))
	if err != nil {
		t.Fatalf("Schedule on custom topology: %v", err)
	}
	if err := res.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
	// Pipelined segments must respect the ring adjacency.
	for _, w := range res.Schedule.Windows {
		for _, mi := range []int{0, 1} {
			segs := w.ModelSegments(mi)
			for i := 1; i < len(segs); i++ {
				if pkg.Hops(segs[i-1].Chiplet, segs[i].Chiplet) != 1 {
					t.Errorf("non-adjacent pipeline step %v -> %v", segs[i-1], segs[i])
				}
			}
		}
	}
}
