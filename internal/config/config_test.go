package config

import (
	"encoding/json"
	"strings"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
)

func TestParseWorkloadZoo(t *testing.T) {
	data := []byte(`{
		"name": "custom",
		"models": [
			{"zoo": "resnet50", "batch": 4},
			{"zoo": "bert-base", "batch": 2}
		]
	}`)
	sc, err := ParseWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumModels() != 2 {
		t.Fatalf("models = %d", sc.NumModels())
	}
	if sc.Models[0].Batch != 4 || sc.Models[1].Batch != 2 {
		t.Errorf("batches = %d, %d", sc.Models[0].Batch, sc.Models[1].Batch)
	}
}

func TestParseWorkloadExplicitLayers(t *testing.T) {
	data := []byte(`{
		"name": "tiny",
		"models": [{
			"name": "net",
			"batch": 1,
			"layers": [
				{"name": "c1", "type": "conv", "c": 3, "k": 16, "y": 34, "x": 34, "r": 3, "s": 3, "stride": 1},
				{"name": "fc", "type": "gemm", "c": 16, "k": 10, "y": 1}
			]
		}]
	}`)
	sc, err := ParseWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Models[0].Layers[0].K != 16 {
		t.Errorf("layer K = %d", sc.Models[0].Layers[0].K)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"name": "x", "models": []}`,
		`{"name": "x", "models": [{"zoo": "nonexistent"}]}`,
		`{"name": "x", "models": [{"name": "m"}]}`,
		`{"name": "x", "models": [{"name": "m", "layers": [{"name": "l", "type": "warp"}]}]}`,
	}
	for _, c := range cases {
		if _, err := ParseWorkload([]byte(c)); err == nil {
			t.Errorf("accepted invalid workload %q", c)
		}
	}
}

func TestParseMCMDefaultsAndOverrides(t *testing.T) {
	m, err := ParseMCM([]byte(`{"pattern": "het-sides", "width": 3, "height": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChiplets() != 9 {
		t.Errorf("chiplets = %d", m.NumChiplets())
	}
	if m.Chiplets[0].Spec.NumPEs != 4096 {
		t.Errorf("default PEs = %d", m.Chiplets[0].Spec.NumPEs)
	}

	m, err = ParseMCM([]byte(`{
		"pattern": "het-cb", "width": 3, "height": 3, "profile": "edge",
		"chiplet": {"l2_mb": 4, "clock_mhz": 800}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Chiplets[0].Spec.NumPEs != 256 {
		t.Errorf("edge PEs = %d", m.Chiplets[0].Spec.NumPEs)
	}
	if m.Chiplets[0].Spec.L2Bytes != 4<<20 {
		t.Errorf("L2 = %d", m.Chiplets[0].Spec.L2Bytes)
	}
	if m.Chiplets[0].Spec.ClockHz != 800e6 {
		t.Errorf("clock = %v", m.Chiplets[0].Spec.ClockHz)
	}
}

func TestParseMCMErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"pattern": "moebius", "width": 3, "height": 3}`,
		`{"pattern": "het-cb", "width": 3, "height": 3, "profile": "quantum"}`,
	}
	for _, c := range cases {
		if _, err := ParseMCM([]byte(c)); err == nil {
			t.Errorf("accepted invalid MCM %q", c)
		}
	}
}

func TestExportScheduleRoundTrips(t *testing.T) {
	sc, err := ParseWorkload([]byte(`{
		"name": "tiny",
		"models": [{
			"name": "net", "batch": 1,
			"layers": [
				{"name": "c1", "type": "conv", "c": 3, "k": 16, "y": 34, "x": 34, "r": 3, "s": 3, "stride": 1},
				{"name": "fc", "type": "gemm", "c": 16, "k": 10, "y": 1}
			]
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMCM([]byte(`{"pattern": "het-cb", "width": 3, "height": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	sched := &eval.Schedule{Windows: []eval.TimeWindow{{Segments: []eval.Segment{
		{Model: 0, First: 0, Last: 1, Chiplet: 2},
	}}}}
	db := costdb.New(maestro.DefaultParams())
	comp := eval.Compile(db, m, &sc, eval.DefaultOptions())
	metrics, err := comp.Evaluate(comp.NewScratch(), sched)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ExportSchedule(&sc, m, sched, metrics)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ScheduleExport
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if decoded.Scenario != "tiny" || len(decoded.Windows) != 1 {
		t.Errorf("decoded = %+v", decoded)
	}
	seg := decoded.Windows[0].Segments[0]
	if seg.FirstLayer != "c1" || seg.LastLayer != "fc" {
		t.Errorf("segment layers = %+v", seg)
	}
	if !strings.Contains(string(data), "dataflow") {
		t.Error("export missing dataflow annotation")
	}
}

func TestLoadFromTestdata(t *testing.T) {
	sc, err := LoadWorkload("testdata/workload.json")
	if err != nil {
		t.Fatalf("LoadWorkload: %v", err)
	}
	if sc.NumModels() != 3 {
		t.Fatalf("models = %d, want 3", sc.NumModels())
	}
	if sc.Models[2].Name != "custom-head" || sc.Models[2].NumLayers() != 2 {
		t.Errorf("custom model = %+v", sc.Models[2])
	}
	m, err := LoadMCM("testdata/mcm.json")
	if err != nil {
		t.Fatalf("LoadMCM: %v", err)
	}
	if m.Name != "het-sides-3x3" {
		t.Errorf("MCM name = %s", m.Name)
	}
	if m.Chiplets[0].Spec.L2Bytes != 10<<20 || m.Chiplets[0].Spec.ClockHz != 500e6 {
		t.Errorf("chiplet overrides not applied: %+v", m.Chiplets[0].Spec)
	}
}

func TestLoadMissingFiles(t *testing.T) {
	if _, err := LoadWorkload("testdata/nope.json"); err == nil {
		t.Error("missing workload file accepted")
	}
	if _, err := LoadMCM("testdata/nope.json"); err == nil {
		t.Error("missing MCM file accepted")
	}
}
