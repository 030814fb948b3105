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
//	scarbench -exp online -benchjson BENCH_online.json
//	scarbench -exp policies -benchjson BENCH_policies.json
//	scarbench -exp overload -benchjson BENCH_overload.json
//	scarbench -workers 4 -exp all   # bound cell-level parallelism
//	scarbench -cpuprofile cpu.pprof -exp table4
//	scarbench -costdb scar.costdb -exp table4  # warm-start the cost model
//
// Performance is measured by the repository benchmark (bench/run.sh),
// not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/experiments"
	"example.com/scar/internal/maestro"
)

// result is what an experiment prints. The snapshot experiments'
// results also implement snapshotter.
type result interface{ Print(io.Writer) }

// snapshotter is a result with a BENCH_*.json form, written by -benchjson.
type snapshotter interface{ WriteJSON(io.Writer) error }

// printFunc adapts a print method to result.
type printFunc func(io.Writer)

func (f printFunc) Print(w io.Writer) { f(w) }

// results prints several results in order.
type results []result

func (rs results) Print(w io.Writer) {
	for _, r := range rs {
		r.Print(w)
	}
}

// experiment is one -exp name and the run producing what it prints.
type experiment struct {
	name string
	run  func(ctx context.Context, s *experiments.Suite) (result, error)
}

// experimentTable lists every experiment in "-exp all" order.
var experimentTable = []experiment{
	{"fig2", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Motivational(ctx) }},
	{"table4", func(ctx context.Context, s *experiments.Suite) (result, error) {
		res, err := s.Datacenter(ctx)
		if err != nil {
			return nil, err
		}
		return printFunc(res.PrintTableIV), nil
	}},
	{"fig7", func(ctx context.Context, s *experiments.Suite) (result, error) {
		res, err := s.Datacenter(ctx)
		if err != nil {
			return nil, err
		}
		return printFunc(res.PrintFig7), nil
	}},
	{"fig8", pareto([]int{3, 4}, maestro.DefaultDatacenterChiplet())},
	{"fig9", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.TopSchedule(ctx) }},
	{"table5", func(ctx context.Context, s *experiments.Suite) (result, error) {
		res, err := s.ARVR(ctx)
		if err != nil {
			return nil, err
		}
		return printFunc(res.PrintTableV), nil
	}},
	{"fig11", pareto([]int{6, 7, 8, 10}, maestro.DefaultEdgeChiplet())},
	{"fig12", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Triangular(ctx) }},
	{"fig13", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Scale6x6(ctx) }},
	{"nsplits", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Nsplits(ctx) }},
	{"prov", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.ProvAblation(ctx) }},
	{"packing", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Packing(ctx) }},
	{"complexity", func(_ context.Context, s *experiments.Suite) (result, error) { return s.Complexity(), nil }},
	{"sensitivity", func(ctx context.Context, s *experiments.Suite) (result, error) {
		var out results
		for _, sweep := range []func(context.Context) (*experiments.SensitivityResult, error){
			s.CostModelSensitivity, s.ContentionSensitivity,
			s.BudgetSensitivity, s.MappingSensitivity,
		} {
			res, err := sweep(ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, res, printFunc(func(w io.Writer) {
				fmt.Fprintf(w, "heterogeneous advantage robust: %v\n\n", res.RobustlyHeterogeneous())
			}))
		}
		return out, nil
	}},
	{"online", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Online(ctx) }},
	{"policies", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Policies(ctx) }},
	{"overload", func(ctx context.Context, s *experiments.Suite) (result, error) { return s.Overload(ctx) }},
}

// experimentAliases are -exp names that run a table entry under another
// name. They are not part of "-exp all".
var experimentAliases = map[string]string{"fig10": "table5"}

// pareto runs the Pareto front of each scenario on the 3x3 datacenter
// strategies built from spec.
func pareto(scenarios []int, spec maestro.Chiplet) func(context.Context, *experiments.Suite) (result, error) {
	return func(ctx context.Context, s *experiments.Suite) (result, error) {
		var out results
		for _, sc := range scenarios {
			res, err := s.Pareto(ctx, sc, experiments.DatacenterStrategies(), 3, 3, spec)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		return out, nil
	}
}

// selectExperiments resolves the -exp list against experimentTable.
func selectExperiments(exps string) ([]experiment, error) {
	if exps == "all" {
		return experimentTable, nil
	}
	var list []experiment
	for _, name := range strings.Split(exps, ",") {
		name = strings.TrimSpace(name)
		target := name
		if alias, ok := experimentAliases[name]; ok {
			target = alias
		}
		i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.name == target })
		if i < 0 {
			return nil, fmt.Errorf("-exp: unknown experiment %q (known: %s)", name, knownExperiments())
		}
		list = append(list, experiment{name, experimentTable[i].run})
	}
	return list, nil
}

// knownExperiments lists every accepted -exp name.
func knownExperiments() string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	for alias := range experimentAliases {
		names = append(names, alias)
	}
	return strings.Join(names, ", ")
}

// main delegates so realMain's defers (CPU profile trailer, file close)
// run before the process exits even when an experiment fails.
func main() { os.Exit(realMain()) }

// validateFlags rejects nonsense flag values at startup with a clear
// error instead of carrying them into a long experiment run. It returns
// the experiments -exp selects.
func validateFlags(exps string, workers int, timeout time.Duration) ([]experiment, error) {
	switch {
	case workers < 0:
		return nil, fmt.Errorf("-workers must be >= 0, got %d (use 0 for all cores)", workers)
	case timeout < 0:
		return nil, fmt.Errorf("-timeout must be >= 0, got %v (use 0 for no bound)", timeout)
	}
	return selectExperiments(exps)
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
		benchJSON  = flag.String("benchjson", "", "with -exp online, policies or overload: also write the snapshot as JSON to this file (the BENCH_*.json format)")
	)
	flag.Parse()

	list, err := validateFlags(*exps, *workers, *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scarbench: %v\n", err)
		return 2
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
		switch {
		case errors.Is(err, costdb.ErrStaleSnapshot):
			fmt.Fprintf(os.Stderr, "scarbench: -costdb %v; starting cold and overwriting it on save\n", err)
		case err != nil:
			fmt.Fprintf(os.Stderr, "scarbench: -costdb %v\n", err)
			return 1
		case loaded:
			fmt.Printf("cost database loaded from %s (%d entries)\n", *costdbPath, suite.DB.Size())
		}
	}

	for _, exp := range list {
		start := time.Now()
		if err := runOne(ctx, suite, exp, *benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "scarbench: %s: %v\n", exp.name, err)
			return 1
		}
		fmt.Printf("[%s completed in %v]\n\n", exp.name, time.Since(start).Round(time.Millisecond))
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

// runOne runs one experiment and prints its result. A snapshot result is
// also written to benchJSON when that is set.
func runOne(ctx context.Context, s *experiments.Suite, exp experiment, benchJSON string) error {
	res, err := exp.run(ctx, s)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	snap, ok := res.(snapshotter)
	if !ok || benchJSON == "" {
		return nil
	}
	if err := writeSnapshot(benchJSON, snap.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("snapshot written to %s\n", benchJSON)
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
