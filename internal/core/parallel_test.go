package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// assertResultsIdentical checks the full determinism contract: schedule,
// metrics, explored cloud and all search statistics must match exactly.
func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Errorf("%s: schedules differ:\n  a=%v\n  b=%v", label, a.Schedule, b.Schedule)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("%s: metrics differ: %+v vs %+v", label, a.Metrics, b.Metrics)
	}
	if a.Splits != b.Splits {
		t.Errorf("%s: splits %d vs %d", label, a.Splits, b.Splits)
	}
	if a.Candidates != b.Candidates {
		t.Errorf("%s: candidates %d vs %d", label, a.Candidates, b.Candidates)
	}
	if a.WindowEvals != b.WindowEvals {
		t.Errorf("%s: window evals %d vs %d", label, a.WindowEvals, b.WindowEvals)
	}
	if a.UniqueWindows != b.UniqueWindows {
		t.Errorf("%s: unique windows %d vs %d", label, a.UniqueWindows, b.UniqueWindows)
	}
	if !reflect.DeepEqual(a.Explored, b.Explored) {
		t.Errorf("%s: explored clouds differ (%d vs %d entries)", label, len(a.Explored), len(b.Explored))
	}
}

// Property: Schedule with Workers: 1 and Workers: 8 returns identical
// schedules, metrics and search statistics across random scenarios,
// package patterns and objectives — the ISSUE's determinism guarantee.
func TestParallelScheduleMatchesSerial(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	patterns := []*mcm.MCM{
		mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet()),
		mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet()),
	}
	objectives := []Objective{LatencyObjective(), EnergyObjective(), EDPObjective()}
	for seed := int64(0); seed < 6; seed++ {
		sc := randomScenario(seed)
		pkg := patterns[int(seed)%2]
		obj := objectives[int(seed)%3]

		serialOpts := FastOptions()
		serialOpts.Workers = 1
		serial, serialErr := New(db, serialOpts).Schedule(context.Background(), NewRequest(&sc, pkg, obj))

		parOpts := FastOptions()
		parOpts.Workers = 8
		parallel, parErr := New(db, parOpts).Schedule(context.Background(), NewRequest(&sc, pkg, obj))

		if (serialErr == nil) != (parErr == nil) {
			t.Fatalf("seed %d: serial err=%v, parallel err=%v", seed, serialErr, parErr)
		}
		if serialErr != nil {
			if serialErr.Error() != parErr.Error() {
				t.Errorf("seed %d: error text differs: %q vs %q", seed, serialErr, parErr)
			}
			continue
		}
		assertResultsIdentical(t, string(rune('0'+seed))+"/"+obj.Name, serial, parallel)
	}
}

// The determinism guarantee must also hold for the evolutionary search
// mode (GA seeds derive from task coordinates, not shared streams).
func TestParallelEvolutionaryMatchesSerial(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Search = SearchEvolutionary

	opts.Workers = 1
	serial, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "evolutionary", serial, parallel)
}

// Uniform packing shares searchPartitionings with the main entry point
// and must be Workers-invariant too.
func TestParallelUniformPackingMatchesSerial(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Workers = 1
	serial, err := New(db, opts).ScheduleUniformPacking(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := New(db, opts).ScheduleUniformPacking(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "uniform-packing", serial, parallel)
}

// One Scheduler must be callable from many goroutines at once (run under
// -race): runs share only the immutable options and the concurrency-safe
// cost database, and each call must still return the deterministic result.
func TestSchedulerConcurrentUse(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Workers = 4
	s := New(db, opts)

	want, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		assertResultsIdentical(t, "concurrent-caller", want, results[g])
	}
}

// The window cache must actually be doing work where window evaluations
// repeat: the GA re-scores duplicate genomes constantly, and exhaustive
// provisioning replays overlapping placements across allocations. The
// brute-force tree search on distinct windows legitimately has a ~0% hit
// rate (every placement it probes is new), so only the bookkeeping
// invariants are asserted there.
func TestWindowCacheHits(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()

	brute, err := New(db, FastOptions()).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if brute.UniqueWindows <= 0 || brute.UniqueWindows > brute.WindowEvals {
		t.Fatalf("unique windows %d out of range (evals %d)", brute.UniqueWindows, brute.WindowEvals)
	}

	evoOpts := FastOptions()
	evoOpts.Search = SearchEvolutionary
	evo, err := New(db, evoOpts).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if evo.CacheHitRate() <= 0 {
		t.Errorf("evolutionary cache hit rate %.3f, want > 0 (duplicate genomes)", evo.CacheHitRate())
	}

	exOpts := FastOptions()
	exOpts.Prov = ProvExhaustive
	exOpts.MaxProvOptions = 8
	ex, err := New(db, exOpts).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if ex.CacheHitRate() <= 0 {
		t.Errorf("exhaustive-PROV cache hit rate %.3f, want > 0 (overlapping allocations)", ex.CacheHitRate())
	}
}

func TestPoolForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := newPool(workers)
		const n = 100
		var hits [n]int32
		p.forEach(0, n, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// Nested fan-outs share the pool's slots; they must complete without
// deadlock and still cover every index at every level.
func TestPoolNestedForEach(t *testing.T) {
	p := newPool(4)
	const outer, inner = 6, 7
	var count atomic.Int64
	p.forEach(0, outer, func(worker, i int) {
		p.forEach(worker, inner, func(_, j int) {
			count.Add(1)
		})
	})
	if got := count.Load(); got != outer*inner {
		t.Fatalf("nested forEach ran %d tasks, want %d", got, outer*inner)
	}
}

// Worker ids hand each concurrently-running task private scratch state,
// so they must be in [0, NWorkers) and never shared by two tasks running
// at the same time — including across nesting levels, where the caller
// keeps its own id while helpers draw fresh tokens.
func TestPoolWorkerIDsDistinctWhileRunning(t *testing.T) {
	p := newPool(4)
	nw := p.NWorkers()
	if nw != 4 {
		t.Fatalf("NWorkers = %d, want 4", nw)
	}
	inUse := make([]atomic.Bool, nw)
	var violations atomic.Int64
	enter := func(worker int) {
		if worker < 0 || worker >= nw || !inUse[worker].CompareAndSwap(false, true) {
			violations.Add(1)
		}
	}
	exit := func(worker int) { inUse[worker].Store(false) }
	p.forEach(0, 16, func(worker, i int) {
		enter(worker)
		p.forEach(worker, 5, func(inner, j int) {
			if inner != worker {
				// A nested helper drew its own token; the caller's id
				// stays held by the enclosing task.
				enter(inner)
				defer exit(inner)
			}
		})
		exit(worker)
	})
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d worker-id sharing violations", v)
	}
}

func TestPoolSerialIsInline(t *testing.T) {
	p := newPool(1)
	order := make([]int, 0, 5)
	p.forEach(0, 5, func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial pool reordered tasks: %v", order)
		}
	}
}

func TestMixSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for ci := int64(0); ci < 8; ci++ {
		for wi := int64(0); wi < 8; wi++ {
			s := mixSeed(1, ci, wi)
			if seen[s] {
				t.Fatalf("mixSeed collision at (%d,%d)", ci, wi)
			}
			seen[s] = true
		}
	}
	if mixSeed(1, 2, 3) != mixSeed(1, 2, 3) {
		t.Error("mixSeed not deterministic")
	}
	if mixSeed(1, 2, 3) == mixSeed(1, 3, 2) {
		t.Error("mixSeed ignores salt order")
	}
}

func TestWindowKeyDistinguishesSegments(t *testing.T) {
	key := func(segs []eval.Segment) string { return string(appendWindowKey(nil, segs)) }
	a := []eval.Segment{{Model: 0, First: 0, Last: 1, Chiplet: 2}}
	b := []eval.Segment{{Model: 0, First: 0, Last: 1, Chiplet: 3}}
	c := []eval.Segment{{Model: 1, First: 0, Last: 1, Chiplet: 2}}
	if key(a) == key(b) || key(a) == key(c) {
		t.Error("window key collides on distinct placements")
	}
	if key(a) != key([]eval.Segment{{Model: 0, First: 0, Last: 1, Chiplet: 2}}) {
		t.Error("window key not stable")
	}
	// Reusing a non-empty buffer must yield the same fingerprint bytes.
	buf := appendWindowKey(nil, b)
	if string(appendWindowKey(buf[:0], a)) != key(a) {
		t.Error("window key differs when the buffer is reused")
	}
}

// Scenarios drawn from the workload package directly (not the random
// generator) pin the determinism property on a realistic Table III-style
// mix as well.
func TestParallelScheduleMatchesSerialRealistic(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	a := workload.NewModel("convnet", 4, []workload.Layer{
		workload.Conv("c0", 3, 64, 114, 114, 7, 2),
		workload.Conv("c1", 64, 64, 58, 58, 3, 1),
		workload.Conv("c2", 64, 128, 58, 58, 3, 1),
		workload.Conv("c3", 128, 128, 30, 30, 3, 1),
	})
	b := workload.NewModel("lm", 2, []workload.Layer{
		workload.GEMM("g0", 128, 768, 2304),
		workload.GEMM("g1", 128, 768, 768),
		workload.GEMM("g2", 128, 768, 3072),
	})
	sc := workload.NewScenario("realistic", a, b)
	for _, obj := range []Objective{LatencyObjective(), EDPObjective()} {
		opts := FastOptions()
		opts.Workers = 1
		serial, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, obj))
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 8
		parallel, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, obj))
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, obj.Name, serial, parallel)
	}
}
