package eval

import (
	"math"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// testRig builds a 3x3 homogeneous MCM and a two-model scenario with
// configurable batch.
func testRig(batch int) (*costdb.DB, *mcm.MCM, *workload.Scenario) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Simba(3, 3, dataflow.NVDLA(), maestro.DefaultDatacenterChiplet())
	a := workload.NewModel("a", batch, []workload.Layer{
		workload.Conv("a0", 64, 64, 58, 58, 3, 1),
		workload.Conv("a1", 64, 64, 58, 58, 3, 1),
		workload.Conv("a2", 64, 128, 58, 58, 3, 1),
		workload.Conv("a3", 128, 128, 30, 30, 3, 1),
	})
	b := workload.NewModel("b", batch, []workload.Layer{
		workload.GEMM("b0", 128, 768, 768),
		workload.GEMM("b1", 128, 768, 3072),
		workload.GEMM("b2", 128, 3072, 768),
	})
	sc := workload.NewScenario("rig", a, b)
	return db, pkg, &sc
}

func singleWindow(segs ...Segment) *Schedule {
	return &Schedule{Windows: []TimeWindow{{Index: 0, Segments: segs}}}
}

func TestEvaluateValidSchedule(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := singleWindow(
		Segment{Model: 0, First: 0, Last: 3, Chiplet: 0},
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 1},
	)
	m, err := c.Evaluate(c.NewScratch(), s)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if m.LatencySec <= 0 || m.EnergyJ <= 0 {
		t.Errorf("non-positive metrics: %+v", m)
	}
	if math.Abs(m.EDP-m.LatencySec*m.EnergyJ) > 1e-18 {
		t.Errorf("EDP = %v, want lat*energy = %v", m.EDP, m.LatencySec*m.EnergyJ)
	}
	if len(m.Windows) != 1 {
		t.Fatalf("windows = %d, want 1", len(m.Windows))
	}
	if m.Windows[0].NumLayers != 7 {
		t.Errorf("window layers = %d, want 7", m.Windows[0].NumLayers)
	}
}

func TestValidateRejectsMissingLayer(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := singleWindow(
		Segment{Model: 0, First: 0, Last: 2, Chiplet: 0}, // a3 missing
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 1},
	)
	if _, err := c.Evaluate(c.NewScratch(), s); err == nil {
		t.Error("schedule with missing layer accepted")
	}
}

func TestValidateRejectsDuplicateLayer(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := singleWindow(
		Segment{Model: 0, First: 0, Last: 3, Chiplet: 0},
		Segment{Model: 0, First: 3, Last: 3, Chiplet: 2},
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 1},
	)
	if _, err := c.Evaluate(c.NewScratch(), s); err == nil {
		t.Error("schedule with duplicated layer accepted")
	}
}

func TestValidateRejectsOutOfOrderWindows(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := &Schedule{Windows: []TimeWindow{
		{Index: 0, Segments: []Segment{
			{Model: 0, First: 2, Last: 3, Chiplet: 0},
			{Model: 1, First: 0, Last: 2, Chiplet: 1},
		}},
		{Index: 1, Segments: []Segment{
			{Model: 0, First: 0, Last: 1, Chiplet: 0},
		}},
	}}
	if _, err := c.Evaluate(c.NewScratch(), s); err == nil {
		t.Error("dependency-violating window order accepted")
	}
}

func TestValidateRejectsBadChiplet(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := singleWindow(
		Segment{Model: 0, First: 0, Last: 3, Chiplet: 99},
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 1},
	)
	if _, err := c.Evaluate(c.NewScratch(), s); err == nil {
		t.Error("out-of-range chiplet accepted")
	}
}

func TestPipeliningBeatsSingleChipletAtHighBatch(t *testing.T) {
	db, pkg, sc := testRig(16)
	c := Compile(db, pkg, sc, DefaultOptions())
	mono := singleWindow(
		Segment{Model: 0, First: 0, Last: 3, Chiplet: 0},
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 4},
	)
	piped := singleWindow(
		Segment{Model: 0, First: 0, Last: 1, Chiplet: 0},
		Segment{Model: 0, First: 2, Last: 3, Chiplet: 1},
		Segment{Model: 1, First: 0, Last: 1, Chiplet: 4},
		Segment{Model: 1, First: 2, Last: 2, Chiplet: 5},
	)
	mm, err := c.Evaluate(c.NewScratch(), mono)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := c.Evaluate(c.NewScratch(), piped)
	if err != nil {
		t.Fatal(err)
	}
	if pm.LatencySec >= mm.LatencySec {
		t.Errorf("pipelined latency %v >= single-chiplet %v at batch 16", pm.LatencySec, mm.LatencySec)
	}
}

func TestWindowLatencyIsMaxOverModels(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := singleWindow(
		Segment{Model: 0, First: 0, Last: 3, Chiplet: 0},
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 4},
	)
	m, _ := c.Evaluate(c.NewScratch(), s)
	w := m.Windows[0]
	latA, latB := w.ModelLatency[0], w.ModelLatency[1]
	want := math.Max(latA, latB)
	if math.Abs(w.LatencySec-want)/want > 1e-12 {
		t.Errorf("window latency %v != max(model lats) %v (disjoint chiplets)", w.LatencySec, want)
	}
	if w.LatencySec >= latA+latB {
		t.Error("disjoint models appear serialized")
	}
}

func TestSharedChipletSerializes(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	shared := singleWindow(
		Segment{Model: 0, First: 0, Last: 3, Chiplet: 0, Order: 0},
		Segment{Model: 1, First: 0, Last: 2, Chiplet: 0, Order: 1},
	)
	m, err := c.Evaluate(c.NewScratch(), shared)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Windows[0]
	sum := w.ModelLatency[0] + w.ModelLatency[1]
	if w.LatencySec < 0.99*sum {
		t.Errorf("shared-chiplet window latency %v < serialized sum %v", w.LatencySec, sum)
	}
}

func TestMultiWindowSumsLatency(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := &Schedule{Windows: []TimeWindow{
		{Index: 0, Segments: []Segment{
			{Model: 0, First: 0, Last: 1, Chiplet: 0},
			{Model: 1, First: 0, Last: 0, Chiplet: 1},
		}},
		{Index: 1, Segments: []Segment{
			{Model: 0, First: 2, Last: 3, Chiplet: 0},
			{Model: 1, First: 1, Last: 2, Chiplet: 1},
		}},
	}}
	m, err := c.Evaluate(c.NewScratch(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Windows) != 2 {
		t.Fatalf("windows = %d", len(m.Windows))
	}
	sum := m.Windows[0].LatencySec + m.Windows[1].LatencySec
	if math.Abs(m.LatencySec-sum)/sum > 1e-12 {
		t.Errorf("total latency %v != sum of windows %v", m.LatencySec, sum)
	}
}

func TestHeterogeneousPlacementMatters(t *testing.T) {
	// On a heterogeneous package, placing the GEMM model on the NVDLA
	// chiplet must beat placing it on the ShiDianNao chiplet.
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Motivational2x2(maestro.DefaultDatacenterChiplet())
	gemms := workload.NewModel("g", 1, []workload.Layer{
		workload.GEMM("g0", 128, 1280, 5120),
		workload.GEMM("g1", 128, 5120, 1280),
	})
	sc := workload.NewScenario("het", gemms)
	c := Compile(db, pkg, &sc, DefaultOptions())
	// Chiplet 0 is NVDLA; chiplet 3 is ShiDianNao.
	onNVD := singleWindow(Segment{Model: 0, First: 0, Last: 1, Chiplet: 0})
	onShi := singleWindow(Segment{Model: 0, First: 0, Last: 1, Chiplet: 3})
	mn, err := c.Evaluate(c.NewScratch(), onNVD)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := c.Evaluate(c.NewScratch(), onShi)
	if err != nil {
		t.Fatal(err)
	}
	if mn.EDP >= ms.EDP {
		t.Errorf("GEMMs on NVDLA EDP %v >= on ShiDianNao %v", mn.EDP, ms.EDP)
	}
}

func TestContentionFactorsGrowWithFlows(t *testing.T) {
	db, pkg, sc := testRig(4)
	c := Compile(db, pkg, sc, DefaultOptions())
	few := TimeWindow{Segments: []Segment{
		{Model: 0, First: 0, Last: 3, Chiplet: 0},
	}}
	many := TimeWindow{Segments: []Segment{
		{Model: 0, First: 0, Last: 0, Chiplet: 0},
		{Model: 0, First: 1, Last: 1, Chiplet: 1},
		{Model: 0, First: 2, Last: 2, Chiplet: 2},
		{Model: 0, First: 3, Last: 3, Chiplet: 5},
		{Model: 1, First: 0, Last: 0, Chiplet: 3},
		{Model: 1, First: 1, Last: 2, Chiplet: 4},
	}}
	nopFew, offFew := contentionFactors(c, c.NewScratch(), few)
	nopMany, offMany := contentionFactors(c, c.NewScratch(), many)
	if nopMany <= nopFew {
		t.Errorf("NoP contention %v not > %v with more cross flows", nopMany, nopFew)
	}
	if offMany <= offFew {
		t.Errorf("offchip contention %v not > %v with more streams", offMany, offFew)
	}
}

func TestLatencyBoundedEDP(t *testing.T) {
	s := LatencyBoundedEDP(1.0)
	ok := Metrics{LatencySec: 0.5, EnergyJ: 2, EDP: 1}
	bad := Metrics{LatencySec: 1.5, EnergyJ: 2, EDP: 3}
	if got := s(ok); got != 1 {
		t.Errorf("within bound score = %v, want 1", got)
	}
	if got := s(bad); !math.IsInf(got, 1) {
		t.Errorf("over bound score = %v, want +Inf", got)
	}
}

func TestSegmentHelpers(t *testing.T) {
	s := Segment{Model: 1, First: 3, Last: 5, Chiplet: 2}
	if s.NumLayers() != 3 {
		t.Errorf("NumLayers = %d, want 3", s.NumLayers())
	}
	refs := s.Refs()
	if len(refs) != 3 || refs[0] != (workload.LayerRef{Model: 1, Index: 3}) {
		t.Errorf("Refs = %v", refs)
	}
	w := TimeWindow{Segments: []Segment{
		{Model: 1, First: 4, Last: 5},
		{Model: 0, First: 0, Last: 1},
		{Model: 1, First: 0, Last: 3},
	}}
	ms := w.ModelSegments(1)
	if len(ms) != 2 || ms[0].First != 0 {
		t.Errorf("ModelSegments order wrong: %v", ms)
	}
	if got := w.Models(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Models = %v", got)
	}
}

func TestModelLatencyAccumulatesAcrossWindows(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := &Schedule{Windows: []TimeWindow{
		{Index: 0, Segments: []Segment{
			{Model: 0, First: 0, Last: 3, Chiplet: 0},
			{Model: 1, First: 0, Last: 0, Chiplet: 1},
		}},
		{Index: 1, Segments: []Segment{
			{Model: 1, First: 1, Last: 2, Chiplet: 1},
		}},
	}}
	m, err := c.Evaluate(c.NewScratch(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Model 0 finishes inside window 0.
	if m.ModelLatency[0] > m.Windows[0].LatencySec*1.0001 {
		t.Errorf("model 0 latency %v beyond window 0 latency %v", m.ModelLatency[0], m.Windows[0].LatencySec)
	}
	// Model 1 spans both windows: its completion must exceed window 0's
	// latency and be at most the schedule total.
	if m.ModelLatency[1] <= m.Windows[0].LatencySec {
		t.Errorf("model 1 latency %v does not extend past window 0 (%v)", m.ModelLatency[1], m.Windows[0].LatencySec)
	}
	if m.ModelLatency[1] > m.LatencySec*1.0001 {
		t.Errorf("model 1 latency %v exceeds schedule latency %v", m.ModelLatency[1], m.LatencySec)
	}
}

func TestPerModelLatencyBoundedEDP(t *testing.T) {
	m := Metrics{EDP: 5, ModelLatency: map[int]float64{0: 1.0, 1: 2.0}}
	loose := PerModelLatencyBoundedEDP(map[int]float64{0: 1.5, 1: 2.5})
	if got := loose(m); got != 5 {
		t.Errorf("loose bounds score = %v, want 5", got)
	}
	tight := PerModelLatencyBoundedEDP(map[int]float64{1: 1.5})
	if got := tight(m); !math.IsInf(got, 1) {
		t.Errorf("violated bound score = %v, want +Inf", got)
	}
	// Bounds on absent models are ignored.
	absent := PerModelLatencyBoundedEDP(map[int]float64{7: 0.001})
	if got := absent(m); got != 5 {
		t.Errorf("absent-model bound score = %v, want 5", got)
	}
}
