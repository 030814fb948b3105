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
		{name: "brute/sc1/het-sides/latency", scenario: 1, pkg: pattern("het-sides", 3), obj: "latency", want: "4906e30cf44a5cc1"},
		{name: "brute/sc1/het-sides/energy", scenario: 1, pkg: pattern("het-sides", 3), obj: "energy", want: "c8abaf990c91fad0"},
		{name: "brute/sc1/het-sides/edp", scenario: 1, pkg: pattern("het-sides", 3), obj: "edp", want: "9ba09e753e44d83c"},
		{name: "brute/sc1/het-cb/latency", scenario: 1, pkg: pattern("het-cb", 3), obj: "latency", want: "bd4a5f9f88411259"},
		{name: "brute/sc1/het-cb/energy", scenario: 1, pkg: pattern("het-cb", 3), obj: "energy", want: "a73c26f5c0202970"},
		{name: "brute/sc1/het-cb/edp", scenario: 1, pkg: pattern("het-cb", 3), obj: "edp", want: "5023080d8f76166a"},
		{name: "brute/sc6/het-sides/latency", scenario: 6, pkg: pattern("het-sides", 3), obj: "latency", want: "c2f15f7c94bddf72"},
		{name: "brute/sc6/het-sides/energy", scenario: 6, pkg: pattern("het-sides", 3), obj: "energy", want: "b28bd646a96ef854"},
		{name: "brute/sc6/het-sides/edp", scenario: 6, pkg: pattern("het-sides", 3), obj: "edp", want: "47070e799cee542a"},
		{name: "brute/sc6/het-cb/latency", scenario: 6, pkg: pattern("het-cb", 3), obj: "latency", want: "be06213a2dcd8cd1"},
		{name: "brute/sc6/het-cb/energy", scenario: 6, pkg: pattern("het-cb", 3), obj: "energy", want: "9418d1942c3e0197"},
		{name: "brute/sc6/het-cb/edp", scenario: 6, pkg: pattern("het-cb", 3), obj: "edp", want: "5cb59bcddbe3ae7f"},
		{name: "brute/sc8/het-sides/latency", scenario: 8, pkg: pattern("het-sides", 3), obj: "latency", want: "d2fbfb62db4628b6"},
		{name: "brute/sc8/het-sides/energy", scenario: 8, pkg: pattern("het-sides", 3), obj: "energy", want: "c37feb40e1432be1"},
		{name: "brute/sc8/het-sides/edp", scenario: 8, pkg: pattern("het-sides", 3), obj: "edp", want: "c28e575dc75ec883"},
		{name: "brute/sc8/het-cb/latency", scenario: 8, pkg: pattern("het-cb", 3), obj: "latency", want: "27974b630ea7f970"},
		{name: "brute/sc8/het-cb/energy", scenario: 8, pkg: pattern("het-cb", 3), obj: "energy", want: "244ef185db84de0b"},
		{name: "brute/sc8/het-cb/edp", scenario: 8, pkg: pattern("het-cb", 3), obj: "edp", want: "849b7ee04d6464d1"},
		{
			// Scenario 5 on a 6x6 package: the GA finds no feasible
			// genome for some windows and falls back to the tree search.
			name: "evo/sc5/simba-shi-6x6/edp", scenario: 5, pkg: pattern("simba-shi", 6), obj: "edp",
			opts: func(o *Options) { o.Search = SearchEvolutionary; o.NodeAllocCap = 6 },
			want: "e788726339cee176",
		},
		{
			name: "free/sc1/het-sides/edp", scenario: 1, pkg: pattern("het-sides", 3), obj: "edp",
			opts: func(o *Options) { o.FreePlacement = true },
			want: "0b9d703cc17c51fe",
		},
		{
			name: "prov-exhaustive/sc6/het-cb/edp", scenario: 6, pkg: pattern("het-cb", 3), obj: "edp",
			opts: func(o *Options) { o.Prov = ProvExhaustive; o.MaxProvOptions = 8 },
			want: "ac6af4cce7461d26",
		},
		{name: "triangular/sc8/het-t/edp", scenario: 8, pkg: pattern("het-t", 3), obj: "edp", want: "f52d1a6e245d235e"},
		{name: "custom/sc8/ring/latency", scenario: 8, pkg: goldenRing, obj: "latency", want: "999cdf435e9cd6e9"},
		{name: "brute-hits/sc7/het-cb/edp", scenario: 7, pkg: pattern("het-cb", 3), obj: "edp", hits: true, want: "0aadf8eb2ae4b86a"},
		{
			name: "evo-prov-exhaustive/sc6/het-sides/edp", scenario: 6, pkg: pattern("het-sides", 3), obj: "edp",
			opts: func(o *Options) { o.Search = SearchEvolutionary; o.Prov = ProvExhaustive; o.MaxProvOptions = 8 },
			want: "e0018831d0c59daa",
		},
		{name: "uniform/sc8/het-sides/edp", scenario: 8, pkg: pattern("het-sides", 3), obj: "edp", uniform: true, want: "55d18ea35dc14fbb"},
		{
			name: "workers1/sc7/het-sides/latency", scenario: 7, pkg: pattern("het-sides", 3), obj: "latency",
			opts: func(o *Options) { o.Workers = 1 },
			want: "53b5035c71659c4e",
		},
		{
			name: "workers4/sc7/het-sides/latency", scenario: 7, pkg: pattern("het-sides", 3), obj: "latency",
			opts: func(o *Options) { o.Workers = 4 },
			want: "53b5035c71659c4e",
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
