package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
)

// goldenDigest hashes every deterministic field of a Result: the
// schedule's segments, the float bits of every metric (per window and
// per model included), Splits, WindowEvals, UniqueWindows, Candidates
// and the Explored cloud.
func goldenDigest(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	perModel := func(m map[int]float64) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		i(len(keys))
		for _, k := range keys {
			i(k)
			f(m[k])
		}
	}
	metrics := func(m eval.Metrics) {
		f(m.LatencySec)
		f(m.EnergyJ)
		f(m.EDP)
		i(len(m.Windows))
		for _, w := range m.Windows {
			f(w.LatencySec)
			f(w.EnergyJ)
			i(w.NumLayers)
			perModel(w.ModelLatency)
		}
		perModel(m.ModelLatency)
	}
	i(len(res.Schedule.Windows))
	for _, w := range res.Schedule.Windows {
		i(w.Index)
		i(len(w.Segments))
		for _, s := range w.Segments {
			i(s.Model)
			i(s.First)
			i(s.Last)
			i(s.Chiplet)
			i(s.Order)
		}
	}
	metrics(res.Metrics)
	i(res.Splits)
	i(res.WindowEvals)
	i(res.UniqueWindows)
	i(res.Candidates)
	i(len(res.Explored))
	for _, c := range res.Explored {
		i(c.Splits)
		i(c.Windows)
		metrics(c.Metrics)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRing is a 3x3 custom-link package: a ring around the border plus
// two chords through the centre chiplet, with memory interfaces on the
// left and right columns.
func goldenRing(spec maestro.Chiplet) (*mcm.MCM, error) {
	dfs := make([]dataflow.Dataflow, 9)
	for id := range dfs {
		dfs[id] = dataflow.NVDLA()
		if id%2 == 1 {
			dfs[id] = dataflow.ShiDianNao()
		}
	}
	links := [][2]int{{0, 1}, {1, 2}, {2, 5}, {5, 8}, {8, 7}, {7, 6}, {6, 3}, {3, 0}, {1, 4}, {4, 7}}
	return mcm.NewCustom("golden-ring-3x3", 3, 3, dfs, links, []int{0, 3, 6, 2, 5, 8}, spec)
}

// goldenCase is one pinned search: a built-in scenario on a package
// under an objective, with option overrides, and its Result digest.
type goldenCase struct {
	name     string
	scenario int
	pkg      func(spec maestro.Chiplet) (*mcm.MCM, error)
	obj      string
	opts     func(o *Options)
	// uniform runs ScheduleUniformPacking instead of Schedule.
	uniform bool
	// hits requires a nonzero CacheHitRate: sibling candidates share
	// identical windows.
	hits bool
	want string
}

// goldenCases lists the pinned searches: brute force on 3x3 het-sides
// and het-cb under all three objectives, a 6x6 evolutionary search whose
// GA falls back to the tree search, free placement, exhaustive
// provisioning (also under the evolutionary search), a triangular
// package, a custom-link package, count-uniform packing, and one search
// at one and at four workers.
func goldenCases() []goldenCase {
	pattern := func(name string, w int) func(maestro.Chiplet) (*mcm.MCM, error) {
		return func(spec maestro.Chiplet) (*mcm.MCM, error) { return mcm.ByName(name, w, w, spec) }
	}
	return []goldenCase{
		{name: "brute/sc1/het-sides/latency", scenario: 1, pkg: pattern("het-sides", 3), obj: "latency", want: "fe96f7351b04d835"},
		{name: "brute/sc1/het-sides/energy", scenario: 1, pkg: pattern("het-sides", 3), obj: "energy", want: "d78b8f7a818cad27"},
		{name: "brute/sc1/het-sides/edp", scenario: 1, pkg: pattern("het-sides", 3), obj: "edp", want: "ededf67440ea2ab2"},
		{name: "brute/sc1/het-cb/latency", scenario: 1, pkg: pattern("het-cb", 3), obj: "latency", want: "91f4e3f14ff0842a"},
		{name: "brute/sc1/het-cb/energy", scenario: 1, pkg: pattern("het-cb", 3), obj: "energy", want: "797484a9068caad9"},
		{name: "brute/sc1/het-cb/edp", scenario: 1, pkg: pattern("het-cb", 3), obj: "edp", want: "28ae5446f53f9e9e"},
		{name: "brute/sc6/het-sides/latency", scenario: 6, pkg: pattern("het-sides", 3), obj: "latency", want: "3b3eeeb071634ae4"},
		{name: "brute/sc6/het-sides/energy", scenario: 6, pkg: pattern("het-sides", 3), obj: "energy", want: "0ddd7426a2fd0e6a"},
		{name: "brute/sc6/het-sides/edp", scenario: 6, pkg: pattern("het-sides", 3), obj: "edp", want: "008ed1cd57596cd9"},
		{name: "brute/sc6/het-cb/latency", scenario: 6, pkg: pattern("het-cb", 3), obj: "latency", want: "f87022d51c798194"},
		{name: "brute/sc6/het-cb/energy", scenario: 6, pkg: pattern("het-cb", 3), obj: "energy", want: "59ec3257fbcc983f"},
		{name: "brute/sc6/het-cb/edp", scenario: 6, pkg: pattern("het-cb", 3), obj: "edp", want: "40a2675ad7b56ecf"},
		{name: "brute/sc8/het-sides/latency", scenario: 8, pkg: pattern("het-sides", 3), obj: "latency", want: "ac975d04e6e377be"},
		{name: "brute/sc8/het-sides/energy", scenario: 8, pkg: pattern("het-sides", 3), obj: "energy", want: "8a962d75c9ff79d6"},
		{name: "brute/sc8/het-sides/edp", scenario: 8, pkg: pattern("het-sides", 3), obj: "edp", want: "04cdc299d552c116"},
		{name: "brute/sc8/het-cb/latency", scenario: 8, pkg: pattern("het-cb", 3), obj: "latency", want: "0048be555aa1d542"},
		{name: "brute/sc8/het-cb/energy", scenario: 8, pkg: pattern("het-cb", 3), obj: "energy", want: "cd91555e97935272"},
		{name: "brute/sc8/het-cb/edp", scenario: 8, pkg: pattern("het-cb", 3), obj: "edp", want: "a7ef74059fb94e0d"},
		{
			// Scenario 5 on a 6x6 package: the GA finds no feasible
			// genome for some windows and falls back to the tree search.
			name: "evo/sc5/simba-shi-6x6/edp", scenario: 5, pkg: pattern("simba-shi", 6), obj: "edp",
			opts: func(o *Options) { o.Search = SearchEvolutionary; o.NodeAllocCap = 6 },
			want: "5c5bf1d22d2941e7",
		},
		{
			name: "free/sc1/het-sides/edp", scenario: 1, pkg: pattern("het-sides", 3), obj: "edp",
			opts: func(o *Options) { o.FreePlacement = true },
			want: "fe874dc471384009",
		},
		{
			name: "prov-exhaustive/sc6/het-cb/edp", scenario: 6, pkg: pattern("het-cb", 3), obj: "edp",
			opts: func(o *Options) { o.Prov = ProvExhaustive; o.MaxProvOptions = 8 },
			want: "e7b31433da188e04",
		},
		{name: "triangular/sc8/het-t/edp", scenario: 8, pkg: pattern("het-t", 3), obj: "edp", want: "6c8fe0a3428a0533"},
		{name: "custom/sc8/ring/latency", scenario: 8, pkg: goldenRing, obj: "latency", want: "62c2691fcc339e51"},
		{name: "brute-hits/sc7/het-cb/edp", scenario: 7, pkg: pattern("het-cb", 3), obj: "edp", hits: true, want: "4f123e12fe2b7493"},
		{
			name: "evo-prov-exhaustive/sc6/het-sides/edp", scenario: 6, pkg: pattern("het-sides", 3), obj: "edp",
			opts: func(o *Options) { o.Search = SearchEvolutionary; o.Prov = ProvExhaustive; o.MaxProvOptions = 8 },
			want: "69a772056f651d59",
		},
		{name: "uniform/sc8/het-sides/edp", scenario: 8, pkg: pattern("het-sides", 3), obj: "edp", uniform: true, want: "f0f916bd15ecfa45"},
		{
			name: "workers1/sc7/het-sides/latency", scenario: 7, pkg: pattern("het-sides", 3), obj: "latency",
			opts: func(o *Options) { o.Workers = 1 },
			want: "a675338918afc1f0",
		},
		{
			name: "workers4/sc7/het-sides/latency", scenario: 7, pkg: pattern("het-sides", 3), obj: "latency",
			opts: func(o *Options) { o.Workers = 4 },
			want: "a675338918afc1f0",
		},
	}
}

// goldenCaseNamed returns the pinned case with the given name.
func goldenCaseNamed(t *testing.T, name string) goldenCase {
	t.Helper()
	for _, c := range goldenCases() {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no golden case %q", name)
	return goldenCase{}
}

// request builds the case's request and its scheduler options.
func (c goldenCase) request(t *testing.T) (*Request, Options) {
	t.Helper()
	sc, err := models.ScenarioByNumber(c.scenario)
	if err != nil {
		t.Fatal(err)
	}
	spec := maestro.DefaultDatacenterChiplet()
	if c.scenario >= 6 {
		spec = maestro.DefaultEdgeChiplet()
	}
	pkg, err := c.pkg(spec)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := ObjectiveByName(c.obj)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if c.opts != nil {
		c.opts(&opts)
	}
	return NewRequest(&sc, pkg, obj), opts
}

// run schedules the case with s, which must carry the case's options.
func (c goldenCase) run(ctx context.Context, s *Scheduler, req *Request) (*Result, error) {
	if c.uniform {
		return s.ScheduleUniformPacking(ctx, req)
	}
	return s.Schedule(ctx, req)
}

// TestGoldenResults pins the digest of every deterministic Result field
// for every golden case. A change that must keep results bit-identical
// keeps every digest; one that changes results on purpose re-records
// them and says why.
func TestGoldenResults(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			req, opts := c.request(t)
			res, err := c.run(context.Background(), New(db, opts), req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Partial {
				t.Fatal("partial result without a deadline")
			}
			if c.hits && res.CacheHitRate() == 0 {
				t.Error("no window evaluation was served from memory")
			}
			if got := goldenDigest(res); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
