package scar_test

// The benchmark harness regenerates every table and figure of the SCAR
// paper's evaluation with paper-default search budgets, one benchmark per
// artifact (see the per-experiment index in DESIGN.md). Benchmarks print
// a one-line summary; the full tables come from `go run ./cmd/scarbench`.
//
// The Table IV / Figure 7 sweep and the Table V / Figure 10 sweep are
// shared across their benchmarks through a lazy cache so the suite stays
// tractable.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	scar "example.com/scar"
	"example.com/scar/internal/experiments"
	"example.com/scar/internal/maestro"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite

	dcOnce sync.Once
	dcRes  *experiments.DatacenterResult
	dcErr  error

	arOnce sync.Once
	arRes  *experiments.ARVRResult
	arErr  error
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite() })
	return suite
}

func datacenterSweep(b *testing.B) *experiments.DatacenterResult {
	dcOnce.Do(func() { dcRes, dcErr = sharedSuite().Datacenter(context.Background()) })
	if dcErr != nil {
		b.Fatal(dcErr)
	}
	return dcRes
}

func arvrSweep(b *testing.B) *experiments.ARVRResult {
	arOnce.Do(func() { arRes, arErr = sharedSuite().ARVR(context.Background()) })
	if arErr != nil {
		b.Fatal(arErr)
	}
	return arRes
}

// BenchmarkFig02Motivational regenerates the Figure 2 study: EDP of the
// six scheduling cases on the 2x2 heterogeneous MCM.
func BenchmarkFig02Motivational(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().Motivational(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("fig2: A2/A1=%.2f A3/A1=%.2f B2/B1=%.2f B3/B1=%.2f (paper 0.78/0.52/0.30/0.28)\n",
				res.Ratio["A2"], res.Ratio["A3"], res.Ratio["B2"], res.Ratio["B3"])
		}
	}
}

// BenchmarkTable04Datacenter regenerates Table IV: latency and EDP of
// every strategy on scenarios 1-5 under the latency and EDP searches.
func BenchmarkTable04Datacenter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := datacenterSweep(b)
		if i == 0 {
			res.PrintTableIV(io.Discard)
			fmt.Printf("table4: %d cells evaluated\n", len(res.Cells))
		}
	}
}

// BenchmarkFig07SearchBars regenerates the Figure 7 normalized bars.
func BenchmarkFig07SearchBars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := datacenterSweep(b)
		series := res.Fig7()
		if i == 0 {
			fmt.Printf("fig7: %d normalized series\n", len(series))
		}
	}
}

// BenchmarkFig08Pareto regenerates the Figure 8 Pareto clouds for
// scenarios 3 and 4.
func BenchmarkFig08Pareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sc := range []int{3, 4} {
			res, err := sharedSuite().Pareto(context.Background(), sc, experiments.DatacenterStrategies(), 3, 3, maestro.DefaultDatacenterChiplet())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				front := 0
				for _, p := range res.Points {
					if p.OnFront {
						front++
					}
				}
				fmt.Printf("fig8 sc%d: %d points, %d on front\n", sc, len(res.Points), front)
			}
		}
	}
}

// BenchmarkFig09TopSchedule regenerates the Figure 9 / Table VI breakdown
// of the winning Het-Sides schedule for Scenario 4.
func BenchmarkFig09TopSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().TopSchedule(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("fig9: %d windows, EDP %.4g J.s\n", len(res.WindowLat), res.Result.Metrics.EDP)
		}
	}
}

// BenchmarkTable05ARVR regenerates Table V / Figure 10: the AR/VR EDP
// search relative to Standalone (NVD).
func BenchmarkTable05ARVR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := arvrSweep(b)
		if i == 0 {
			res.PrintTableV(io.Discard)
			lat, edp := res.Relative(9, "Het-Sides")
			fmt.Printf("table5: sc9 Het-Sides rel lat=%.2f rel EDP=%.2f\n", lat, edp)
		}
	}
}

// BenchmarkFig11ARVRPareto regenerates the Figure 11 AR/VR Pareto clouds
// (scenarios 6, 7, 8, 10).
func BenchmarkFig11ARVRPareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sc := range []int{6, 7, 8, 10} {
			res, err := sharedSuite().Pareto(context.Background(), sc, experiments.DatacenterStrategies(), 3, 3, maestro.DefaultEdgeChiplet())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("fig11 sc%d: %d points\n", sc, len(res.Points))
			}
		}
	}
}

// BenchmarkFig12Triangular regenerates the Figure 12 triangular-NoP
// ablation.
func BenchmarkFig12Triangular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().Triangular(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Print(io.Discard)
			fmt.Printf("fig12: %d cells\n", len(res.Cells))
		}
	}
}

// BenchmarkFig13Scale6x6 regenerates the Figure 13 6x6 scaling study with
// the evolutionary search at nsplits 2 and 3.
func BenchmarkFig13Scale6x6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().Scale6x6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			het := res.Rows[2]["Het-Cross"]
			sim := res.Rows[2]["Simba-6 (NVD)"]
			fmt.Printf("fig13 nsplits=2: Het-Cross EDP %.4g vs Simba-6(NVD) %.4g (%.2fx)\n",
				het.Metrics.EDP, sim.Metrics.EDP, sim.Metrics.EDP/het.Metrics.EDP)
		}
	}
}

// BenchmarkAblationNsplits regenerates the Section V-E time-partitioning
// ablation (nsplits 1-5).
func BenchmarkAblationNsplits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().Nsplits(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("nsplits: EDP %v\n", res.EDP)
		}
	}
}

// BenchmarkAblationProv regenerates the Section V-E exhaustive-PROV
// ablation on scenarios 3-5.
func BenchmarkAblationProv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().ProvAblation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("prov: rule %v vs exhaustive %v\n", res.Rule, res.Exhaustive)
		}
	}
}

// BenchmarkAblationPacking regenerates the Section V-E greedy-vs-uniform
// packing ablation.
func BenchmarkAblationPacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sharedSuite().Packing(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("packing: greedy lat %.4g vs uniform %.4g; energy %.4g vs %.4g\n",
				res.GreedyLat, res.UniformLat, res.GreedyE, res.UniformE)
		}
	}
}

// BenchmarkScheduleSerial and BenchmarkScheduleParallel time the Table
// III Scenario 4 EDP schedule on the Het-Sides 3x3 datacenter package at
// Workers 1 and GOMAXPROCS: `go test -bench 'Schedule(Serial|Parallel)'`
// is the serial-vs-parallel A/B. The worker count never changes a
// result: internal/core's golden Workers 1/4 cases and parallel_test.go
// pin that.
func benchmarkSchedule(b *testing.B, workers int) {
	sc, err := scar.ScenarioByNumber(4)
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := scar.MCMByName("het-sides", 3, 3, scar.DatacenterChiplet())
	if err != nil {
		b.Fatal(err)
	}
	opts := scar.DefaultOptions()
	opts.Workers = workers
	sched := scar.NewScheduler(opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.EDPObjective())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleSerial(b *testing.B)   { benchmarkSchedule(b, 1) }
func BenchmarkScheduleParallel(b *testing.B) { benchmarkSchedule(b, 0) }

// BenchmarkCompiledSearch measures end-to-end search throughput on the
// compiled evaluation session: a full two-level schedule of the default
// AR/VR scenario (Table III Scenario 6) on the Het-Sides 3x3 edge
// package, reporting logical window evaluations per second (memoization
// hits included — the rate the search engine consumes placements at).
func BenchmarkCompiledSearch(b *testing.B) {
	sc, err := scar.ScenarioByNumber(6)
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := scar.MCMByName("het-sides", 3, 3, scar.EdgeChiplet())
	if err != nil {
		b.Fatal(err)
	}
	opts := scar.DefaultOptions()
	sched := scar.NewScheduler(opts)
	obj := scar.EDPObjective()
	if _, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, obj)); err != nil {
		b.Fatal(err) // warm the shared cost database
	}
	b.ReportAllocs()
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		res, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, obj))
		if err != nil {
			b.Fatal(err)
		}
		evals += res.WindowEvals
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "window-evals/s")
}

// BenchmarkComplexity regenerates the Section II-D search-space figures.
func BenchmarkComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedSuite().Complexity()
		if i == 0 {
			fmt.Printf("complexity: motivational 10^%.1f, full 10^%.1f\n",
				res.MotivationalLog10, res.FullLog10)
		}
	}
}
