// Command scarbench regenerates the SCAR paper's evaluation tables and
// figures (Section V) and prints them as text tables. Each experiment is
// indexed against the paper in EXPERIMENTS.md; the system inventory
// behind them is DESIGN.md.
//
// Usage:
//
//	scarbench -exp all
//	scarbench -exp fig2,table4,fig7,fig8,fig9,table5,fig11,fig12,fig13
//	scarbench -exp nsplits,prov,packing,complexity
//	scarbench -exp speedup          # serial-vs-parallel search engine
//	scarbench -exp evalbench -benchjson BENCH_eval.json
//	scarbench -exp online -benchjson BENCH_online.json
//	scarbench -exp policies -benchjson BENCH_policies.json
//	scarbench -exp overload -benchjson BENCH_overload.json
//	scarbench -exp serve -benchjson serve.json        # serve-layer load generator
//	scarbench -exp serve -serve-url http://localhost:8080  # drive a live daemon
//	scarbench -workers 4 -exp all   # bound cell-level parallelism
//	scarbench -cpuprofile cpu.pprof -exp table4
//	scarbench -costdb scar.costdb -exp table4  # warm-start the cost model
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/experiments"
	"example.com/scar/internal/maestro"
)

var allExperiments = []string{
	"fig2", "table4", "fig7", "fig8", "fig9", "table5", "fig11",
	"fig12", "fig13", "nsplits", "prov", "packing", "complexity",
	"sensitivity", "speedup", "evalbench", "online", "policies",
	"overload", "serve",
}

var (
	benchJSON string
	serveCfg  experiments.ServeLoadConfig
)

// main delegates so realMain's defers (CPU profile trailer, file close)
// run before the process exits even when an experiment fails.
func main() { os.Exit(realMain()) }

// validateFlags rejects nonsense flag values at startup with a clear
// error instead of carrying them into a long experiment run.
func validateFlags(workers int, timeout time.Duration, cfg experiments.ServeLoadConfig) error {
	switch {
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d (use 0 for all cores)", workers)
	case timeout < 0:
		return fmt.Errorf("-timeout must be >= 0, got %v (use 0 for no bound)", timeout)
	case cfg.Keys < 0:
		return fmt.Errorf("-serve-keys must be >= 0, got %d", cfg.Keys)
	case cfg.Goroutines < 0:
		return fmt.Errorf("-serve-goroutines must be >= 0, got %d", cfg.Goroutines)
	case cfg.Duration < 0:
		return fmt.Errorf("-serve-duration must be >= 0, got %v", cfg.Duration)
	case cfg.HitFraction < 0 || cfg.HitFraction > 1:
		return fmt.Errorf("-serve-hit must be within [0, 1], got %v", cfg.HitFraction)
	case cfg.Shards < 0:
		return fmt.Errorf("-serve-shards must be >= 0, got %d", cfg.Shards)
	}
	return nil
}

func realMain() int {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiment list or 'all'")
		fast       = flag.Bool("fast", false, "use reduced search budgets")
		seed       = flag.Int64("seed", 1, "search seed")
		workers    = flag.Int("workers", 0, "parallel experiment cells (0 = all cores); the in-schedule search worker count stays 1 so the two pools do not multiply")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
		costdbPath = flag.String("costdb", "", "cost-database snapshot: loaded if present before the run, saved after it, so repeated runs skip cost-model warmup")
		timeout    = flag.Duration("timeout", 0, "wall-clock bound over the whole run (0 = none); searches in flight at expiry abort and the run fails")
	)
	flag.StringVar(&benchJSON, "benchjson", "", "with -exp evalbench or online: also write the snapshot as JSON to this file (the BENCH_*.json format)")
	flag.IntVar(&serveCfg.Keys, "serve-keys", 0, "with -exp serve: resident cache keys pre-populated per point (0 = 128, or 32 with -fast)")
	flag.IntVar(&serveCfg.Goroutines, "serve-goroutines", 0, "with -exp serve: client concurrency (0 = 4x GOMAXPROCS)")
	flag.DurationVar(&serveCfg.Duration, "serve-duration", 0, "with -exp serve: measured interval per point (0 = 2s, or 250ms with -fast)")
	flag.Float64Var(&serveCfg.HitFraction, "serve-hit", 0, "with -exp serve: hit share of the mixed workload (0 = 0.95)")
	flag.IntVar(&serveCfg.Shards, "serve-shards", 0, "with -exp serve: shard count of the sharded service (0 = serve default)")
	flag.StringVar(&serveCfg.URL, "serve-url", "", "with -exp serve: drive a live scarserve daemon at this base URL instead of in-process services")
	flag.Parse()

	if err := validateFlags(*workers, *timeout, serveCfg); err != nil {
		fmt.Fprintf(os.Stderr, "scarbench: %v\n", err)
		return 2
	}

	if *fast {
		// Reduced load-generator budgets, mirroring -fast search budgets:
		// enough to exercise every path, not enough to measure precisely.
		if serveCfg.Keys == 0 {
			serveCfg.Keys = 32
		}
		if serveCfg.Duration == 0 {
			serveCfg.Duration = 250 * time.Millisecond
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	suite := experiments.NewSuite()
	if *fast {
		suite.Opts = core.FastOptions()
	}
	suite.Opts.Seed = *seed
	suite.Opts.Workers = 1
	suite.Workers = *workers
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *costdbPath != "" {
		loaded, err := suite.DB.LoadFile(*costdbPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: -costdb %v\n", err)
			return 1
		}
		if loaded {
			fmt.Printf("cost database loaded from %s (%d entries)\n", *costdbPath, suite.DB.Size())
		}
	}

	list := allExperiments
	if *exps != "all" {
		list = strings.Split(*exps, ",")
	}
	for _, name := range list {
		start := time.Now()
		if err := run(ctx, suite, strings.TrimSpace(name)); err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *costdbPath != "" {
		if err := suite.DB.SaveFile(*costdbPath); err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: -costdb %v\n", err)
			return 1
		}
		fmt.Printf("cost database saved to %s (%d entries)\n", *costdbPath, suite.DB.Size())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: -memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

func run(ctx context.Context, s *experiments.Suite, name string) error {
	w := os.Stdout
	switch name {
	case "fig2":
		res, err := s.Motivational(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "table4", "fig7":
		res, err := s.Datacenter(ctx)
		if err != nil {
			return err
		}
		if name == "table4" {
			res.PrintTableIV(w)
		} else {
			res.PrintFig7(w)
		}
	case "fig8":
		for _, sc := range []int{3, 4} {
			res, err := s.Pareto(ctx, sc, experiments.DatacenterStrategies(), 3, 3, maestro.DefaultDatacenterChiplet())
			if err != nil {
				return err
			}
			res.Print(w)
		}
	case "fig9":
		res, err := s.TopSchedule(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "table5", "fig10":
		res, err := s.ARVR(ctx)
		if err != nil {
			return err
		}
		res.PrintTableV(w)
	case "fig11":
		for _, sc := range []int{6, 7, 8, 10} {
			res, err := s.Pareto(ctx, sc, experiments.DatacenterStrategies(), 3, 3, maestro.DefaultEdgeChiplet())
			if err != nil {
				return err
			}
			res.Print(w)
		}
	case "fig12":
		res, err := s.Triangular(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "fig13":
		res, err := s.Scale6x6(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "nsplits":
		res, err := s.Nsplits(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "prov":
		res, err := s.ProvAblation(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "packing":
		res, err := s.Packing(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "complexity":
		s.Complexity().Print(w)
	case "speedup":
		res, err := s.Speedup(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
	case "evalbench":
		res, err := s.EvalBench(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
		if benchJSON != "" {
			if err := writeSnapshot(benchJSON, res.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "snapshot written to %s\n", benchJSON)
		}
	case "online":
		res, err := s.Online(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
		if benchJSON != "" {
			if err := writeSnapshot(benchJSON, res.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "snapshot written to %s\n", benchJSON)
		}
	case "policies":
		res, err := s.Policies(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
		if benchJSON != "" {
			if err := writeSnapshot(benchJSON, res.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "snapshot written to %s\n", benchJSON)
		}
	case "overload":
		res, err := s.Overload(ctx)
		if err != nil {
			return err
		}
		res.Print(w)
		if benchJSON != "" {
			if err := writeSnapshot(benchJSON, res.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "snapshot written to %s\n", benchJSON)
		}
	case "serve":
		res, err := s.ServeLoad(ctx, serveCfg)
		if err != nil {
			return err
		}
		res.Print(w)
		if benchJSON != "" {
			if err := writeSnapshot(benchJSON, res.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "snapshot written to %s\n", benchJSON)
		}
	case "sensitivity":
		for _, runSweep := range []func(context.Context) (*experiments.SensitivityResult, error){
			s.CostModelSensitivity, s.ContentionSensitivity,
			s.BudgetSensitivity, s.MappingSensitivity,
		} {
			res, err := runSweep(ctx)
			if err != nil {
				return err
			}
			res.Print(w)
			fmt.Fprintf(w, "heterogeneous advantage robust: %v\n\n", res.RobustlyHeterogeneous())
		}
	default:
		return fmt.Errorf("unknown experiment (know: %s)", strings.Join(allExperiments, ", "))
	}
	return nil
}

// writeSnapshot writes a JSON snapshot via the result's encoder.
func writeSnapshot(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
