package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest alternating (base, change) run pairs a verdict
// other than unresolved needs.
const minPairs = 10

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every untraced result file of a directory, keyed by
// workload and then seed.
func loadResults(dir string) (map[string]map[int64]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]*result{}
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("read result: %w", err)
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("parse %s: %w", f, err)
		}
		if res.Stamp.Traced {
			continue
		}
		if out[res.Stamp.Workload] == nil {
			out[res.Stamp.Workload] = map[int64]*result{}
		}
		out[res.Stamp.Workload][res.Stamp.Seed] = &res
	}
	return out, nil
}

// comparable reports why two stamps must not be compared ("" when they
// may): results from different hosts or run lengths measure different
// things.
func comparable(a, b stamp) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("run length %ds vs %ds", a.Seconds, b.Seconds)
	}
	return ""
}

// verdict is the judgement of one (metric, workload) row.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies the pair rule to aligned base and change values. A gain
// needs at least minPairs pairs, the change winning at least nine in ten
// (ties count for neither) and the medians differing by more than the
// base's interquartile range. Otherwise, a base spread wider than the
// bound leaves the row unresolved unless every change run beats every
// base run; a change median worse than the base's by more than the bound
// (a share of the base median) is a regression.
func judge(base, change []float64, lowerIsBetter bool, bound float64) verdict {
	n := len(base)
	if n < minPairs || len(change) != n {
		return unresolved
	}
	better := func(c, b float64) bool {
		if lowerIsBetter {
			return c < b
		}
		return c > b
	}
	wins := 0
	for i := range base {
		if better(change[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	iqr := bq3 - bq1
	if wins*10 >= 9*n && better(cmed, bmed) && math.Abs(cmed-bmed) > iqr {
		return improved
	}
	scale := math.Abs(bmed)
	if scale == 0 {
		scale = 1
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if iqr/scale > bound && !allBetter {
		return unresolved
	}
	worse := (cmed - bmed) / scale
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return unchanged
}

// runCompare prints one row per (end-to-end metric, workload) and exits
// non-zero when a row regressed or the results are not comparable.
func runCompare(w io.Writer, specPath, baseDir, changeDir string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	base, err := loadResults(baseDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	change, err := loadResults(changeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var ref *stamp
	for _, side := range []map[string]map[int64]*result{base, change} {
		for _, bySeed := range side {
			for _, res := range bySeed {
				if ref == nil {
					ref = &res.Stamp
				} else if why := comparable(*ref, res.Stamp); why != "" {
					fmt.Fprintf(os.Stderr, "bench: refusing to compare results with different stamps: %s\n", why)
					return 2
				}
			}
		}
	}

	code := 0
	fmt.Fprintf(w, "%-15s %-15s %5s %12s %25s %12s %6s  %s\n", "workload", "metric", "pairs", "base p50", "base q1..q3", "change p50", "wins", "verdict")
	for _, wl := range spec.Workloads {
		var seeds []int64
		for s := range base[wl.Name] {
			if change[wl.Name][s] != nil {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			if b, c := base[wl.Name][s], change[wl.Name][s]; b.Digest != c.Digest {
				fmt.Fprintf(w, "# %s seed %d: first-pass outputs differ (digest %s vs %s)\n", wl.Name, s, b.Digest, c.Digest)
			}
		}
		for _, m := range spec.EndToEnd {
			var b, c []float64
			wins := 0
			for _, s := range seeds {
				bv, cv := base[wl.Name][s].Metrics[m.Name].Value, change[wl.Name][s].Metrics[m.Name].Value
				b, c = append(b, bv), append(c, cv)
				if (m.Better == "lower" && cv < bv) || (m.Better == "higher" && cv > bv) {
					wins++
				}
			}
			v := judge(b, c, m.Better == "lower", m.Bound)
			if v == regressed {
				code = 1
			}
			q1, bmed, q3 := quartiles(b)
			_, cmed, _ := quartiles(c)
			fmt.Fprintf(w, "%-15s %-15s %5d %12.5g %12.5g..%-12.5g %12.5g %3d/%-2d  %s\n",
				wl.Name, m.Name, len(seeds), bmed, q1, q3, cmed, wins, len(seeds), v)
		}
	}
	return code
}
