package core

import (
	"context"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// smallScenario is a fast two-model workload for end-to-end tests.
func smallScenario() workload.Scenario {
	a := workload.NewModel("convnet", 4, []workload.Layer{
		workload.Conv("c0", 3, 64, 114, 114, 7, 2),
		workload.Conv("c1", 64, 64, 58, 58, 3, 1),
		workload.Conv("c2", 64, 128, 58, 58, 3, 1),
		workload.Conv("c3", 128, 128, 30, 30, 3, 1),
		workload.Conv("c4", 128, 256, 30, 30, 3, 1),
	})
	b := workload.NewModel("lm", 2, []workload.Layer{
		workload.GEMM("g0", 128, 768, 2304),
		workload.GEMM("g1", 128, 768, 768),
		workload.GEMM("g2", 128, 768, 3072),
		workload.GEMM("g3", 128, 3072, 768),
	})
	return workload.NewScenario("small", a, b)
}

func TestScheduleEndToEnd(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	s := New(db, FastOptions())
	res, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Metrics.LatencySec <= 0 || res.Metrics.EnergyJ <= 0 {
		t.Errorf("non-positive metrics: %+v", res.Metrics)
	}
	if err := res.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("invalid schedule produced: %v", err)
	}
	if res.WindowEvals == 0 {
		t.Error("no window evaluations recorded")
	}
	if res.Candidates == 0 {
		t.Error("no partitioning candidates recorded")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	s := New(db, FastOptions())
	a, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.EDP != b.Metrics.EDP {
		t.Errorf("non-deterministic: EDP %v vs %v", a.Metrics.EDP, b.Metrics.EDP)
	}
	if len(a.Schedule.Windows) != len(b.Schedule.Windows) {
		t.Errorf("non-deterministic window counts: %d vs %d", len(a.Schedule.Windows), len(b.Schedule.Windows))
	}
}

func TestScheduleObjectivesDiffer(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	s := New(db, FastOptions())
	lat, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, LatencyObjective()))
	if err != nil {
		t.Fatal(err)
	}
	edp, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	// The latency-optimal schedule can be no slower than the
	// EDP-optimal one (it optimizes latency directly over the same
	// candidate space).
	if lat.Metrics.LatencySec > edp.Metrics.LatencySec*1.001 {
		t.Errorf("latency search slower (%v) than EDP search (%v)",
			lat.Metrics.LatencySec, edp.Metrics.LatencySec)
	}
}

func TestScheduleMotivational2x2(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Motivational2x2(maestro.DefaultDatacenterChiplet())
	sc := models.MotivationalWorkload()
	s := New(db, FastOptions())
	res, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := res.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestScheduleUniformPackingWorseOrEqual(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	s := New(db, FastOptions())
	greedy, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := s.ScheduleUniformPacking(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if err := uniform.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("uniform packing produced invalid schedule: %v", err)
	}
	// Greedy packing is the paper's winner; allow a small tolerance
	// since both run bounded searches.
	if greedy.Metrics.EDP > uniform.Metrics.EDP*1.25 {
		t.Errorf("greedy packing EDP %v much worse than uniform %v",
			greedy.Metrics.EDP, uniform.Metrics.EDP)
	}
}

func TestScheduleExhaustiveProvNotWorse(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()

	opts := FastOptions()
	rule := New(db, opts)
	rres, err := rule.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	opts.Prov = ProvExhaustive
	opts.MaxProvOptions = 16
	ex := New(db, opts)
	xres, err := ex.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive provisioning explores a superset of allocations but
	// splits the same budget; it should land in the same ballpark or
	// better.
	if xres.Metrics.EDP > rres.Metrics.EDP*1.5 {
		t.Errorf("exhaustive PROV EDP %v ≫ rule-based %v", xres.Metrics.EDP, rres.Metrics.EDP)
	}
}

func TestScheduleRejectsInvalidInputs(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	s := New(db, FastOptions())
	empty := workload.NewScenario("empty")
	if _, err := s.Schedule(context.Background(), NewRequest(&empty, pkg, EDPObjective())); err == nil {
		t.Error("empty scenario accepted")
	}
}

func TestScheduleTooManyModels(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Motivational2x2(maestro.DefaultDatacenterChiplet())
	layer := func(n string) []workload.Layer {
		return []workload.Layer{workload.GEMM(n, 8, 64, 64)}
	}
	sc := workload.NewScenario("crowd",
		workload.NewModel("m1", 1, layer("a")),
		workload.NewModel("m2", 1, layer("b")),
		workload.NewModel("m3", 1, layer("c")),
		workload.NewModel("m4", 1, layer("d")),
		workload.NewModel("m5", 1, layer("e")),
	)
	s := New(db, FastOptions())
	if _, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective())); err == nil {
		t.Error("5 concurrent models on 4 chiplets accepted")
	}
}

func dfNVD() dataflow.Dataflow { return dataflow.NVDLA() }

func TestFreePlacementStillValid(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.FreePlacement = true
	s := New(db, opts)
	res, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatalf("free-placement Schedule: %v", err)
	}
	if err := res.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("invalid free-placement schedule: %v", err)
	}
	// Chiplet exclusivity still holds within windows.
	for _, w := range res.Schedule.Windows {
		seen := map[int]bool{}
		for _, seg := range w.Segments {
			if seen[seg.Chiplet] {
				t.Fatalf("window %d: chiplet %d shared", w.Index, seg.Chiplet)
			}
			seen[seg.Chiplet] = true
		}
	}
}
