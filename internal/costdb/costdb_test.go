package costdb

import (
	"sync"
	"testing"

	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

func newDB() *DB { return New(maestro.DefaultParams()) }

func TestCostMatchesDirectAnalyze(t *testing.T) {
	db := newDB()
	l := workload.Conv("c", 64, 64, 58, 58, 3, 1)
	spec := maestro.DefaultDatacenterChiplet()
	for _, df := range dataflow.All() {
		got := db.Cost(l, df, spec)
		want := maestro.Analyze(l, df, spec, maestro.DefaultParams())
		if got != want {
			t.Errorf("%s: cached %+v != direct %+v", df, got, want)
		}
	}
}

func TestMemoizationByShape(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	a := workload.Conv("block1", 64, 64, 58, 58, 3, 1)
	b := workload.Conv("block9", 64, 64, 58, 58, 3, 1) // same shape, new name
	db.Cost(a, dataflow.NVDLA(), spec)
	if db.Size() != 1 {
		t.Fatalf("Size = %d after first query, want 1", db.Size())
	}
	db.Cost(b, dataflow.NVDLA(), spec)
	if db.Size() != 1 {
		t.Errorf("Size = %d after same-shape query, want 1 (shape keying)", db.Size())
	}
	db.Cost(a, dataflow.ShiDianNao(), spec)
	if db.Size() != 2 {
		t.Errorf("Size = %d after new dataflow, want 2", db.Size())
	}
}

// TestSingleflightComputesOnce hammers one cold key from many goroutines:
// with in-flight tracking exactly one maestro.Analyze may run, so the miss
// counter must end at 1 and every other call must be a hit.
func TestSingleflightComputesOnce(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	l := workload.Conv("cold", 64, 64, 58, 58, 3, 1)
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]maestro.Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g] = db.Cost(l, dataflow.NVDLA(), spec)
		}(g)
	}
	close(start)
	wg.Wait()
	hits, misses := db.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (duplicate compute not coalesced)", misses)
	}
	if hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", hits, goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw a different result", g)
		}
	}
}

func TestStatsCountHitsAndMisses(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	l := workload.GEMM("g", 64, 256, 256)
	db.Cost(l, dataflow.NVDLA(), spec)
	db.Cost(l, dataflow.NVDLA(), spec)
	db.Cost(l, dataflow.ShiDianNao(), spec)
	hits, misses := db.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("Stats = (%d hits, %d misses), want (1, 2)", hits, misses)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := workload.GEMM("g", 64+i%4, 256, 256)
			for j := 0; j < 50; j++ {
				db.Cost(l, dataflow.All()[j%2], spec)
			}
		}(i)
	}
	wg.Wait()
	if db.Size() == 0 {
		t.Error("no entries cached")
	}
}

func TestExpectedIsMixture(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	l := workload.GEMM("g", 128, 1280, 1280)
	nvd := db.Cost(l, dataflow.NVDLA(), spec)
	shi := db.Cost(l, dataflow.ShiDianNao(), spec)

	homo := mcm.Simba(3, 3, dataflow.NVDLA(), spec)
	lat, e := db.Expected(l, homo)
	if lat != nvd.ComputeSeconds || e != nvd.EnergyPJ {
		t.Errorf("homogeneous expectation != pure NVDLA cost")
	}

	het := mcm.HetCB(3, 3, spec) // 5 NVDLA + 4 Shi
	lat, e = db.Expected(l, het)
	wantLat := (5*nvd.ComputeSeconds + 4*shi.ComputeSeconds) / 9
	wantE := (5*nvd.EnergyPJ + 4*shi.EnergyPJ) / 9
	if !approxEq(lat, wantLat) || !approxEq(e, wantE) {
		t.Errorf("Expected = (%v, %v), want (%v, %v)", lat, e, wantLat, wantE)
	}
	// The mixture must lie strictly between the pure costs.
	lo, hi := nvd.ComputeSeconds, shi.ComputeSeconds
	if lo > hi {
		lo, hi = hi, lo
	}
	if lat <= lo || lat >= hi {
		t.Errorf("expectation %v outside (%v, %v)", lat, lo, hi)
	}
}

func TestExpectedModelSums(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	het := mcm.HetCB(3, 3, spec)
	m := workload.NewModel("m", 2, []workload.Layer{
		workload.GEMM("g0", 64, 256, 256),
		workload.GEMM("g1", 64, 256, 512),
	})
	lat, e := db.ExpectedModel(m, het)
	var wantLat, wantE float64
	for _, l := range m.Layers {
		ll, ee := db.Expected(l.WithBatch(2), het)
		wantLat += ll
		wantE += ee
	}
	if !approxEq(lat, wantLat) || !approxEq(e, wantE) {
		t.Errorf("ExpectedModel = (%v,%v), want (%v,%v)", lat, e, wantLat, wantE)
	}
}

// ExpectedLayers resolves the package mixture once, and must still equal
// Expected layer by layer to the bit.
func TestExpectedLayersMatchesExpected(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultDatacenterChiplet()
	het := mcm.HetCB(3, 3, spec)
	sc := workload.NewScenario("s",
		workload.NewModel("a", 2, []workload.Layer{
			workload.GEMM("a0", 64, 256, 256),
			workload.GEMM("a1", 64, 256, 512),
		}),
		workload.NewModel("b", 4, []workload.Layer{workload.GEMM("b0", 32, 512, 128)}),
	)
	lat, e := db.ExpectedLayers(&sc, het)
	for mi, model := range sc.Models {
		for li, l := range model.Layers {
			wantLat, wantE := db.Expected(l.WithBatch(model.Batch), het)
			if lat[mi][li] != wantLat || e[mi][li] != wantE {
				t.Errorf("model %d layer %d: ExpectedLayers = (%v, %v), Expected = (%v, %v)",
					mi, li, lat[mi][li], e[mi][li], wantLat, wantE)
			}
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1e-30 {
		return d < 1e-30
	}
	return d/scale < 1e-12
}
