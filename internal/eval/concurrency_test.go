package eval

import (
	"reflect"
	"sync"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// concurrencyFixture builds a cold cost database, a package, a scenario
// and a couple of windows that exercise pipelining, NoP transfers and
// off-chip contention.
func concurrencyFixture() (*costdb.DB, *mcm.MCM, *workload.Scenario, []TimeWindow) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	a := workload.NewModel("conv", 4, []workload.Layer{
		workload.Conv("c0", 3, 64, 114, 114, 7, 2),
		workload.Conv("c1", 64, 64, 58, 58, 3, 1),
		workload.Conv("c2", 64, 128, 58, 58, 3, 1),
	})
	b := workload.NewModel("lm", 2, []workload.Layer{
		workload.GEMM("g0", 128, 768, 2304),
		workload.GEMM("g1", 128, 768, 768),
	})
	sc := workload.NewScenario("concurrent", a, b)
	windows := []TimeWindow{
		{Index: 0, Segments: []Segment{
			{Model: 0, First: 0, Last: 1, Chiplet: 0},
			{Model: 0, First: 2, Last: 2, Chiplet: 1},
			{Model: 1, First: 0, Last: 0, Chiplet: 4},
			{Model: 1, First: 1, Last: 1, Chiplet: 5},
		}},
		{Index: 0, Segments: []Segment{
			{Model: 0, First: 0, Last: 2, Chiplet: 8},
			{Model: 1, First: 0, Last: 1, Chiplet: 3},
		}},
	}
	return db, pkg, &sc, windows
}

// TestEvaluatorConcurrentUse hammers one compiled session over the
// hand-built pipelined windows from many goroutines, each with a private
// Scratch (run under -race), and checks every result matches the serial
// baseline: the session must hold no hidden mutable state.
func TestEvaluatorConcurrentUse(t *testing.T) {
	db, pkg, sc, windows := concurrencyFixture()
	c := Compile(db, pkg, sc, DefaultOptions())
	sched := &Schedule{Windows: []TimeWindow{
		{Index: 0, Segments: windows[0].Segments},
	}}

	// Serial baselines, computed before the hammering starts.
	s := c.NewScratch()
	baseWin := make([]WindowMetrics, len(windows))
	baseEval := make([]WindowEval, len(windows))
	for i, w := range windows {
		baseWin[i] = c.Window(s, w)
		baseEval[i] = c.WindowEval(s, w)
	}
	baseSched := c.EvaluateUnchecked(s, sched)

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := c.NewScratch()
			for it := 0; it < iters; it++ {
				wi := (g + it) % len(windows)
				if got := c.Window(mine, windows[wi]); !reflect.DeepEqual(got, baseWin[wi]) {
					errs <- "Window result diverged under concurrency"
					return
				}
				if got := c.WindowEval(mine, windows[wi]); got != baseEval[wi] {
					errs <- "WindowEval result diverged under concurrency"
					return
				}
				if got := c.EvaluateUnchecked(mine, sched); !reflect.DeepEqual(got, baseSched) {
					errs <- "EvaluateUnchecked result diverged under concurrency"
					return
				}
				if timings := c.WindowTimings(mine, windows[wi]); len(timings) == 0 {
					errs <- "empty window timings"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCompileConcurrentColdCache compiles one pair from many goroutines
// at once on a completely cold cost database — the state concurrent
// /simulate classes create — and checks every session evaluates every
// window identically.
func TestCompileConcurrentColdCache(t *testing.T) {
	db, pkg, sc, windows := concurrencyFixture()
	const goroutines = 8
	results := make([][]WindowMetrics, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := Compile(db, pkg, sc, DefaultOptions())
			s := c.NewScratch()
			for _, w := range windows {
				results[g] = append(results[g], c.Window(s, w))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("cold-cache windows diverged between goroutines: %+v vs %+v", results[g], results[0])
		}
	}
}
