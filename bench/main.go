// Command bench is the repository's benchmark. It runs one workload for a
// fixed time, checks every output the program produced, and prints each
// metric by name and unit, ending with one JSON line. From the
// repository root:
//
//	bash bench/run.sh --workload search-3x3 --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload serve-open --seed 2 --seconds 25 --trace 1
//	bash bench/run.sh --workload all --seed 1 --out results/base
//	bash bench/run.sh --compare results/base results/change
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics. -out writes a stamped result
// file (and, when traced, a Chrome trace) per run; -compare judges two
// directories of such files against the bounds in BENCHMARK.json. The
// exit code is non-zero when any output check fails. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// small shrinks every workload to a few cheap operations; only the
	// smoke test sets it.
	small bool
}

// workload is one input set the benchmark runs.
type benchWorkload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

// workloads lists the benchmark's workloads in the order -workload all
// runs them. Why each exists is in README.md and BENCHMARK.json.
var workloads = []benchWorkload{
	{"search-3x3", runSearch3x3},
	{"search-6x6", runSearch6x6},
	{"serve-open", runServeOpen},
	{"simulate-sweep", runSimulateSweep},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(names, ", "))
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 25, "seconds one run measures")
		traced  = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		out     = flag.String("out", "", "directory for the stamped result file and Chrome trace (empty = none)")
		compare = flag.Bool("compare", false, "compare two result directories: -compare base/ change/")
		spec    = flag.String("spec", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result directories")
			return 2
		}
		return runCompare(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: -workload <name|all> -seed N -seconds S -trace 0|1 [-out dir]")
		return 2
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), traced: *traced == 1}
	if *name == "all" {
		return runAll(cfg, *out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	res, err := execute(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that each
// one's peak RSS is its own, and prints one combined line last.
func runAll(cfg config, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	combined := summary{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(int(cfg.seconds)), "-trace", fmt.Sprint(btoi(cfg.traced))}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		var s summary
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &s); jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s printed no result: %v\n", w.name, errors.Join(err, jerr))
			return 1
		}
		if err != nil {
			code = 1
		}
		combined.Correct = combined.Correct && s.Correct
		combined.Attempted += s.Attempted
		combined.Failed += s.Failed
		for k, m := range s.Metrics {
			combined.Metrics[w.name+"."+k] = m
		}
	}
	line, _ := json.Marshal(combined) // plain structs of numbers and strings always encode
	fmt.Println(string(line))
	return code
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the host, build and run length behind a result, so
// -compare can refuse results that are not comparable.
type stamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Traced      bool    `json:"traced"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Revision    string  `json:"revision"`
	Ops         int     `json:"ops"`
	Passes      int     `json:"passes"`
	MeasuredSec float64 `json:"measured_sec"`
}

// result is one run's complete record: the summary line plus its stamp,
// the first-pass digest and the reasons of any failed checks.
type result struct {
	summary
	Stamp    stamp    `json:"stamp"`
	Digest   string   `json:"digest"`
	Failures []string `json:"failures,omitempty"`
	// Notes are human-readable lines printed before the summary.
	Notes []string `json:"notes,omitempty"`

	spans []span
}

// revision reports the VCS revision the binary was built from, or
// "unknown" outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// execute runs one workload and turns what it measured into a result.
func execute(ctx context.Context, w benchWorkload, cfg config) (*result, error) {
	r := &run{cfg: cfg, layers: map[string]float64{}}
	if cfg.traced {
		r.rec = newRecorder()
	}
	if err := w.run(ctx, r); err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res := &result{
		summary: summary{
			Correct:   r.failed == 0 && r.checkFailures == 0,
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics:   map[string]metric{},
		},
		Stamp: stamp{
			Workload:    w.name,
			Seed:        cfg.seed,
			Seconds:     int(cfg.seconds),
			Traced:      cfg.traced,
			NumCPU:      runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			Revision:    revision(),
			Ops:         r.attempted,
			Passes:      r.passes,
			MeasuredSec: r.measured.Seconds(),
		},
		Digest:   fmt.Sprintf("%016x", r.digest),
		Failures: r.failures,
		spans:    r.rec.snapshot(),
	}
	if cfg.traced {
		r.layerRuntime()
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: r.layers[d.name], Unit: d.unit}
		}
	} else {
		r.endToEnd(res)
	}
	res.Notes = append(res.Notes, r.notes...)
	return res, nil
}

// print writes the human-readable lines and then the summary line.
func (res *result) print(w io.Writer) {
	s := res.Stamp
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%t ops=%d passes=%d measured=%.2fs num_cpu=%d gomaxprocs=%d %s rev=%s digest=%s\n",
		s.Workload, s.Seed, s.Seconds, s.Traced, s.Ops, s.Passes, s.MeasuredSec, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Revision, res.Digest)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res.summary) // numbers and strings always encode
	fmt.Fprintln(w, string(line))
}

// write stores the result file, and the Chrome trace of a traced run, in
// dir.
func (res *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", res.Stamp.Workload, res.Stamp.Seed, btoi(res.Stamp.Traced)))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if !res.Stamp.Traced {
		return nil
	}
	chrome, err := chromeTimeline(res.spans).ChromeTrace()
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(base+".trace.json", chrome, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
