package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// This file keeps a test-only exhaustive enumerator of SCAR's structural
// schedule space, in the style of sched_reference_test.go. It lists every
// schedule that Compiled.Evaluate accepts with
//   - at most NSplits+1 windows, none of them empty;
//   - each model's layers in contiguous ranges, in window order;
//   - each range cut into contiguous segments;
//   - every segment of a window on its own chiplet;
//   - no adjacency constraint on where segments go,
//
// and takes the minimum under the objective. On instances small enough
// to enumerate, the minimum says how far SCAR's heuristics land from the
// optimum of the space they search: rule-based PROV (Equation 2),
// Algorithm 1 packing, the budgeted tree search, sampled SEG and the GA.
//
// On the Figure 2 instance (3 + 1 layers on 4 chiplets) the enumerator
// counts 4,308 schedules, 10^3.63. Section II-D's formula,
// workload.Log10SchedulingComplexity, sizes the same instance at 10^3.0:
// 4^4 chiplet choices for its 4 layers times 4 interleavings of the two
// models, 1,024 in all. The formula gives every layer its own chiplet and
// one place in a single order; the enumerator counts windows instead, in
// which several layers share a segment and segments of both models run
// side by side, and it forbids two segments of one window one chiplet. So
// the two counts differ by a factor of about four but agree on the
// order, 10^3, as the paper's sizing intends. The other two instances
// count 10^4.46 and 10^4.79 against the formula's 10^3.86 and 10^4.01.

// gapInstance is one enumerable scheduling problem.
type gapInstance struct {
	name string
	sc   workload.Scenario
	pkg  *mcm.MCM
	obj  Objective
}

// gapInstances lists the enumerated problems: the Figure 2 motivational
// instance and two more with 2–3 models on 2x2 and 3x1 packages.
func gapInstances() []gapInstance {
	dc, edge := maestro.DefaultDatacenterChiplet(), maestro.DefaultEdgeChiplet()
	slice := func(m workload.Model, first, last int) workload.Model {
		return workload.NewModel(m.Name, m.Batch, m.Layers[first:last])
	}
	return []gapInstance{
		{
			name: "fig2/motivational-2x2/edp",
			sc:   models.MotivationalWorkload(),
			pkg:  mcm.Motivational2x2(dc),
			obj:  EDPObjective(),
		},
		{
			name: "xr3/het-cb-3x1/latency",
			sc: workload.NewScenario("xr3",
				slice(models.EyeCod(1), 0, 2), slice(models.HandShapePose(1), 0, 2), slice(models.D2GO(1), 0, 1)),
			pkg: mcm.HetCB(3, 1, edge),
			obj: LatencyObjective(),
		},
		{
			name: "dc2/het-cb-2x2/edp",
			sc: workload.NewScenario("dc2",
				slice(models.ResNet50(2), 5, 8), slice(models.BERTBase(64, 2), 0, 2)),
			pkg: mcm.HetCB(2, 2, dc),
			obj: EDPObjective(),
		},
	}
}

// gapOptionSets lists the search configurations measured against each
// optimum. The paper defaults draw nothing that matters on instances
// this small, so the others make SCAR sample: fewer trees than root
// tuples, a SEG enumeration limit below every multi-layer model's
// segmentation space, and the evolutionary search.
var gapOptionSets = []struct {
	name string
	opts func(o *Options)
}{
	{"paper", func(o *Options) {}},
	{"few-trees", func(o *Options) { o.MaxTrees = 2 }},
	{"sampled-seg", func(o *Options) { o.SegEnumLimit = 1; o.SegSamples = 2 }},
	{"evolutionary", func(o *Options) { o.Search = SearchEvolutionary }},
}

// windowMapping is one mapping of a window's layer ranges: its segments
// and their evaluation.
type windowMapping struct {
	segs []eval.Segment
	we   eval.WindowEval
}

// gapEnumerator walks the structural space of one instance.
type gapEnumerator struct {
	comp     *eval.Compiled
	scratch  *eval.Scratch
	sc       *workload.Scenario
	chiplets int
	obj      Objective
	memo     map[string][]windowMapping
}

// optimum is the enumeration's result: the least score, an optimal
// schedule and the number of schedules scored.
type optimum struct {
	score float64
	sched *eval.Schedule
	count int
}

// enumerate scores every schedule of at most maxWindows windows.
func (g *gapEnumerator) enumerate(maxWindows int) optimum {
	best := optimum{score: math.Inf(1)}
	for windows := 1; windows <= maxWindows; windows++ {
		g.partitions(windows, func(ranges [][]layerRange) {
			lists := make([][]windowMapping, windows)
			for w := range lists {
				lists[w] = g.mappings(ranges[w])
			}
			pick := make([]int, windows)
			var walk func(w int, lat, energy float64)
			walk = func(w int, lat, energy float64) {
				if w == windows {
					best.count++
					score := g.obj.Score(eval.Metrics{LatencySec: lat, EnergyJ: energy, EDP: lat * energy})
					if score < best.score {
						best.score = score
						best.sched = &eval.Schedule{}
						for wi, k := range pick {
							best.sched.Windows = append(best.sched.Windows, eval.TimeWindow{Index: wi, Segments: lists[wi][k].segs})
						}
					}
					return
				}
				// Windows accumulate in order, as Compiled.Evaluate sums them.
				for k, m := range lists[w] {
					pick[w] = k
					walk(w+1, lat+m.we.LatencySec, energy+m.we.EnergyJ)
				}
			}
			walk(0, 0, 0)
		})
	}
	return best
}

// partitions calls visit with every split of each model's layers into
// windows contiguous ranges, in order, where no window is empty;
// ranges[w][mi] is model mi's range in window w.
func (g *gapEnumerator) partitions(windows int, visit func(ranges [][]layerRange)) {
	ranges := make([][]layerRange, windows)
	for w := range ranges {
		ranges[w] = make([]layerRange, len(g.sc.Models))
	}
	var model func(mi int)
	// cut assigns model mi's layers from first on to windows w.. on.
	var cut func(mi, w, first int)
	cut = func(mi, w, first int) {
		layers := len(g.sc.Models[mi].Layers)
		if w == windows-1 {
			ranges[w][mi] = layerRange{First: first, Last: layers - 1}
			model(mi + 1)
			return
		}
		for last := first - 1; last < layers; last++ {
			ranges[w][mi] = layerRange{First: first, Last: last}
			cut(mi, w+1, last+1)
		}
	}
	model = func(mi int) {
		if mi < len(g.sc.Models) {
			cut(mi, 0, 0)
			return
		}
		for _, w := range ranges {
			empty := true
			for _, rg := range w {
				empty = empty && rg.empty()
			}
			if empty {
				return
			}
		}
		visit(ranges)
	}
	model(0)
}

// mappings returns every mapping of one window's ranges: each model's
// range cut into contiguous segments, every segment on its own chiplet.
func (g *gapEnumerator) mappings(ranges []layerRange) []windowMapping {
	key := fmt.Sprint(ranges)
	if got, ok := g.memo[key]; ok {
		return got
	}
	var out []windowMapping
	var segs []eval.Segment
	used := make([]bool, g.chiplets)
	// place puts segments k.. on free chiplets once every range is cut.
	var place func(k int)
	place = func(k int) {
		if k == len(segs) {
			window := append([]eval.Segment(nil), segs...)
			out = append(out, windowMapping{
				segs: window,
				we:   g.comp.WindowEval(g.scratch, eval.TimeWindow{Segments: window}),
			})
			return
		}
		for c := range used {
			if !used[c] {
				used[c] = true
				segs[k].Chiplet = c
				place(k + 1)
				used[c] = false
			}
		}
	}
	// split cuts the ranges from model mi's layer first on into
	// segments, then places them.
	var split func(mi, first int)
	split = func(mi, first int) {
		for mi < len(ranges) && first > ranges[mi].Last {
			if mi++; mi < len(ranges) {
				first = ranges[mi].First
			}
		}
		switch {
		case len(segs) > g.chiplets:
		case mi == len(ranges):
			place(0)
		default:
			for last := first; last <= ranges[mi].Last; last++ {
				segs = append(segs, eval.Segment{Model: mi, First: first, Last: last})
				split(mi, last+1)
				segs = segs[:len(segs)-1]
			}
		}
	}
	split(0, ranges[0].First)
	g.memo[key] = out
	return out
}

// gapOptima pins each instance's optimum score and schedule count at
// the paper's NSplits.
var gapOptima = map[string]struct {
	score float64
	count int
}{
	"fig2/motivational-2x2/edp": {2.31642363e-06, 4308},
	"xr3/het-cb-3x1/latency":    {0.000925747156, 29166},
	"dc2/het-cb-2x2/edp":        {1.84147446e-05, 61180},
}

// gapRatioPins pins SCAR's score over the optimum per instance and option
// set, rounded up at the sixth decimal. A change may lower a pin but
// never raise it.
var gapRatioPins = map[string]map[string]float64{
	"fig2/motivational-2x2/edp": {"paper": 1, "few-trees": 1, "sampled-seg": 1, "evolutionary": 1},
	"xr3/het-cb-3x1/latency":    {"paper": 1, "few-trees": 1, "sampled-seg": 1, "evolutionary": 1.102613},
	"dc2/het-cb-2x2/edp":        {"paper": 1.040033, "few-trees": 1.040033, "sampled-seg": 1.040033, "evolutionary": 1.195971},
}

// TestOptimalityGap enumerates every instance's structural space at the
// paper's NSplits, checks the optimum and schedule count against their
// pins and that Compiled.Evaluate accepts the optimal schedule at the
// enumerated score, then runs SCAR under every option set: its score
// must never beat the optimum (that would expose a hole in the
// enumerator) and its SCAR/optimum ratio must not exceed its pin.
func TestOptimalityGap(t *testing.T) {
	const tol = 1e-9
	db := costdb.New(maestro.DefaultParams())
	for _, in := range gapInstances() {
		comp := eval.Compile(db, in.pkg, &in.sc, eval.DefaultOptions())
		g := &gapEnumerator{
			comp: comp, scratch: comp.NewScratch(), sc: &in.sc,
			chiplets: in.pkg.NumChiplets(), obj: in.obj, memo: map[string][]windowMapping{},
		}
		opt := g.enumerate(DefaultOptions().NSplits + 1)
		m, err := comp.Evaluate(comp.NewScratch(), opt.sched)
		if err != nil {
			t.Fatalf("%s: optimal schedule rejected: %v", in.name, err)
		}
		if got := in.obj.Score(m); got != opt.score {
			t.Fatalf("%s: optimal schedule evaluates to %v, enumerated %v", in.name, got, opt.score)
		}
		pin := gapOptima[in.name]
		if opt.count != pin.count || math.Abs(opt.score/pin.score-1) > tol {
			t.Errorf("%s: optimum %.9g over %d schedules, pinned %.9g over %d", in.name, opt.score, opt.count, pin.score, pin.count)
		}
		for _, os := range gapOptionSets {
			opts := DefaultOptions()
			os.opts(&opts)
			res, err := New(db, opts).Schedule(context.Background(), NewRequest(&in.sc, in.pkg, in.obj))
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, os.name, err)
			}
			ratio := in.obj.Score(res.Metrics) / opt.score
			t.Logf("%s/%s: SCAR/optimum %.9f", in.name, os.name, ratio)
			if ratio < 1-tol {
				t.Errorf("%s/%s: SCAR scores %.9f of the enumerated optimum: the enumerator misses schedules", in.name, os.name, ratio)
			}
			if want := gapRatioPins[in.name][os.name]; ratio > want*(1+tol) {
				t.Errorf("%s/%s: SCAR/optimum %.9f, pinned at most %.6f", in.name, os.name, ratio, want)
			}
		}
	}
}
