package costdb

import (
	"sync"
	"testing"

	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
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

// Every field maestro.Analyze reads is part of the key: a chiplet that
// differs from a cached one only in clock or on-chip bandwidth, or a
// dataflow that differs only in its mapping parameters, is analyzed
// afresh instead of served the cached result.
func TestKeyCoversEveryAnalyzeInput(t *testing.T) {
	db := newDB()
	l := workload.Conv("c", 64, 64, 58, 58, 3, 1)
	base := maestro.DefaultDatacenterChiplet()
	fast := base
	fast.ClockHz *= 2
	fast.NoCBandwidth *= 4
	wide := dataflow.NVDLA()
	wide.AtomicC = 32
	for _, c := range []struct {
		df   dataflow.Dataflow
		spec maestro.Chiplet
	}{
		{dataflow.NVDLA(), base}, {dataflow.NVDLA(), fast}, {wide, base}, {dataflow.ShiDianNao(), fast},
	} {
		got := db.Cost(l, c.df, c.spec)
		if want := maestro.Analyze(l, c.df, c.spec, maestro.DefaultParams()); got != want {
			t.Errorf("%s on %+v: shared database %+v, fresh analysis %+v", c.df.Name, c.spec, got, want)
		}
	}
	if db.Size() != 4 {
		t.Errorf("Size = %d, want 4 distinct entries", db.Size())
	}
}

// Column serves a whole column, hits and misses alike, exactly as Cost
// would layer by layer, and counts one lookup per layer.
func TestColumnMatchesCost(t *testing.T) {
	db := newDB()
	spec := maestro.DefaultEdgeChiplet()
	layers := []workload.Layer{
		workload.Conv("c", 64, 128, 28, 28, 3, 1),
		workload.GEMM("g", 64, 512, 1024),
		workload.DWConv("d", 96, 56, 56, 3, 2),
	}
	db.Cost(layers[1].WithBatch(4), dataflow.NVDLA(), spec) // one hit, two misses
	out := make([]maestro.Result, len(layers))
	db.Column(layers, 4, dataflow.NVDLA(), spec, out)
	for i, l := range layers {
		if want := maestro.Analyze(l.WithBatch(4), dataflow.NVDLA(), spec, maestro.DefaultParams()); out[i] != want {
			t.Errorf("layer %d: Column %+v, Analyze %+v", i, out[i], want)
		}
	}
	if hits, misses := db.Stats(); hits != 1 || misses != 3 {
		t.Errorf("Stats = (%d hits, %d misses), want (1, 3)", hits, misses)
	}
}
