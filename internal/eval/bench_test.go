package eval

import (
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// The window-evaluation benchmarks measure the search's innermost loop on
// the default AR/VR scenario (Table III Scenario 6, the XRBench "AR
// Assistant" mix) on the Het-Sides 3x3 edge package:
//
//	BenchmarkWindowEval       - compiled session + reused Scratch; the
//	                            acceptance bar is 0 allocs/op and >= 3x
//	                            the legacy ns/op
//	BenchmarkWindowEvalLegacy - the pre-compilation evaluator (test-only
//	                            reference): per-layer costdb lookups under
//	                            a RWMutex, fresh maps/slices per call
//
// TestWindowEvalZeroAllocs gates the 0 allocs/op bar in every test run;
// the end-to-end search numbers come from bench/run.sh.

// benchRig builds the scenario, package and a set of pipeline windows
// exercising multi-stage fusion, shared chiplets and off-chip contention.
func benchRig(b testing.TB) (*costdb.DB, *mcm.MCM, *workload.Scenario, []TimeWindow) {
	b.Helper()
	sc, err := models.ScenarioByNumber(6)
	if err != nil {
		b.Fatal(err)
	}
	pkg := mcm.HetSides(3, 3, maestro.DefaultEdgeChiplet())
	db := costdb.New(maestro.DefaultParams())

	// One window pipelining each of the first four models over two
	// chiplets, and one packing every model onto single chiplets.
	var piped []Segment
	for mi := 0; mi < 4; mi++ {
		L := len(sc.Models[mi].Layers)
		mid := L / 2
		piped = append(piped,
			Segment{Model: mi, First: 0, Last: mid, Chiplet: 2 * mi},
			Segment{Model: mi, First: mid + 1, Last: L - 1, Chiplet: 2*mi + 1},
		)
	}
	var packed []Segment
	for mi := range sc.Models {
		packed = append(packed, Segment{
			Model: mi, First: 0, Last: len(sc.Models[mi].Layers) - 1, Chiplet: mi,
		})
	}
	windows := []TimeWindow{{Segments: piped}, {Segments: packed}}
	return db, pkg, &sc, windows
}

// TestWindowEvalZeroAllocs is the runtime gate behind the search's
// innermost loop: with a reused Scratch, Compiled.WindowEval does not
// allocate. It runs in -short mode too.
func TestWindowEvalZeroAllocs(t *testing.T) {
	db, pkg, sc, windows := benchRig(t)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := c.NewScratch()
	for _, w := range windows {
		c.WindowEval(s, w) // warm scratch capacity
	}
	for i, w := range windows {
		if n := testing.AllocsPerRun(100, func() { c.WindowEval(s, w) }); n != 0 {
			t.Errorf("window %d: WindowEval made %v allocs/op, want 0", i, n)
		}
	}
}

// BenchmarkWindowEval measures the compiled hot path: dense prefix-sum
// tables, per-worker scratch, no locks, no allocations.
func BenchmarkWindowEval(b *testing.B) {
	db, pkg, sc, windows := benchRig(b)
	c := Compile(db, pkg, sc, DefaultOptions())
	s := c.NewScratch()
	for _, w := range windows {
		c.WindowEval(s, w) // warm scratch capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.WindowEval(s, windows[i%len(windows)])
	}
}

// BenchmarkWindowEvalLegacy measures the pre-compilation evaluator on the
// same windows (cost database pre-warmed, as in a long search).
func BenchmarkWindowEvalLegacy(b *testing.B) {
	db, pkg, sc, windows := benchRig(b)
	ev := New(db, pkg, sc, DefaultOptions())
	for _, w := range windows {
		ev.referenceWindow(w) // warm the cost database
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.referenceWindow(windows[i%len(windows)])
	}
}

// BenchmarkCompile measures session construction (dense table build) with
// a warm cost database — the once-per-(scenario, MCM) overhead a run pays
// before its first window evaluation.
func BenchmarkCompile(b *testing.B) {
	db, pkg, sc, _ := benchRig(b)
	Compile(db, pkg, sc, DefaultOptions()) // warm the cost database
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(db, pkg, sc, DefaultOptions())
	}
}
