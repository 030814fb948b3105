package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// scoredLeaf is one leaf a tree search scored, with the evaluation it
// scored it by.
type scoredLeaf struct {
	segs []eval.Segment
	we   eval.WindowEval
}

// sameWindowEval reports whether two evaluations are bit-equal.
func sameWindowEval(a, b eval.WindowEval) bool {
	return math.Float64bits(a.LatencySec) == math.Float64bits(b.LatencySec) &&
		math.Float64bits(a.EnergyJ) == math.Float64bits(b.EnergyJ) &&
		a.NumLayers == b.NumLayers
}

// realPlans draws plans for up to maxModels distinct models of the
// scenario, each over a random layer range of its model with 1..maxSegs
// segments (exactly one when single is set). Models are taken in
// ascending index order, so whenever a later model draws more segments
// than an earlier one the search's plan order differs from model order.
func realPlans(rng *rand.Rand, sc *workload.Scenario, maxModels, maxSegs int, single bool) []modelPlan {
	picked := rng.Perm(len(sc.Models))[:1+rng.Intn(min(maxModels, len(sc.Models)))]
	slices.Sort(picked)
	plans := make([]modelPlan, len(picked))
	for i, mi := range picked {
		total := len(sc.Models[mi].Layers)
		layers := 1 + rng.Intn(min(total, 40))
		first := rng.Intn(total - layers + 1)
		nseg := 1
		if !single {
			nseg = 1 + rng.Intn(min(maxSegs, layers))
		}
		cuts := rng.Perm(layers - 1)[:nseg-1]
		slices.Sort(cuts)
		plans[i] = modelPlan{
			model: mi,
			r:     layerRange{First: first, Last: first + layers - 1},
			ends:  append(cuts, layers-1),
		}
	}
	return plans
}

// Property: on real compiled sessions, the tree search that scores its
// leaves from per-path passes returns the same result, and scores the
// same leaves in the same order with the same evaluations, as the same
// walk scoring every leaf with Compiled.WindowEval; and every leaf's
// incremental evaluation is bit-equal to its WindowEval. Covers 3x3, 4x4
// and 6x6 packages with datacenter and edge chiplets, free placement,
// stop checks, single-segment plans (the mini-batch fit path) and plans
// whose segment-count order differs from model order (energy must still
// be summed in model order).
func TestIncrementalTreeSearchMatchesWindowEval(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	type setup struct {
		sc   workload.Scenario
		pkg  *mcm.MCM
		comp *eval.Compiled
	}
	var setups []setup
	for _, c := range []struct {
		scenario, width int
		pattern         string
	}{
		{5, 3, "het-sides"}, {2, 3, "het-cb"}, {6, 3, "simba-nvd"}, {9, 3, "het-sides"},
		{4, 4, "het-cb"}, {7, 4, "het-t"}, {5, 6, "het-sides"}, {6, 6, "simba-shi"},
	} {
		sc, err := models.ScenarioByNumber(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		spec := maestro.DefaultDatacenterChiplet()
		if c.scenario >= 6 {
			spec = maestro.DefaultEdgeChiplet()
		}
		pkg, err := mcm.ByName(c.pattern, c.width, c.width, spec)
		if err != nil {
			t.Fatal(err)
		}
		setups = append(setups, setup{sc: sc, pkg: pkg, comp: eval.Compile(db, pkg, &sc, DefaultOptions().Eval)})
	}
	objectives := []Objective{LatencyObjective(), EnergyObjective(), EDPObjective()}
	trials := 240
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < trials; trial++ {
		st := &setups[trial%len(setups)]
		chiplets := st.pkg.NumChiplets()
		adj := st.pkg.AdjacencyMatrix()
		plans := realPlans(rng, &st.sc, min(4, chiplets), 4, rng.Intn(5) == 0)
		obj := objectives[rng.Intn(len(objectives))]
		maxTrees := 1 + rng.Intn(30)
		budget := 1 + rng.Intn(400)
		free := rng.Intn(3) == 0
		stopAfter := 0
		if rng.Intn(4) == 0 {
			stopAfter = 1 + rng.Intn(30)
		}
		seed := rng.Int63()
		label := fmt.Sprintf("trial %d (%s, scenario %s, plans %v, maxTrees %d, budget %d, free %v, stop after %d)",
			trial, st.pkg.Name, st.sc.Name, plans, maxTrees, budget, free, stopAfter)

		scratch := st.comp.NewScratch()
		var want []scoredLeaf
		full := func(segs []eval.Segment) eval.WindowEval {
			we := st.comp.WindowEval(scratch, eval.TimeWindow{Segments: segs})
			want = append(want, scoredLeaf{slices.Clone(segs), we})
			return we
		}
		wantRes := treeSearch(nil, full, adj, chiplets, plans, obj, maxTrees, budget,
			newRandSource(seed), free, stopAfterLeaves(&want, stopAfter))

		paths := &pathPasses{comp: st.comp}
		var got []scoredLeaf
		incremental := func(segs []eval.Segment) eval.WindowEval {
			we := paths.window(segs)
			if ref := st.comp.WindowEval(scratch, eval.TimeWindow{Segments: segs}); !sameWindowEval(we, ref) {
				t.Fatalf("%s: leaf %d %v: incremental %+v, WindowEval %+v", label, len(got), segs, we, ref)
			}
			got = append(got, scoredLeaf{slices.Clone(segs), we})
			return we
		}
		gotRes := treeSearch(paths, incremental, adj, chiplets, plans, obj, maxTrees, budget,
			newRandSource(seed), free, stopAfterLeaves(&got, stopAfter))

		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s: result %+v, want %+v", label, gotRes, wantRes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scored %d leaves, full evaluation %d, or in another order", label, len(got), len(want))
		}
	}
}

// stopAfterLeaves returns a stop check that fires once n leaves are
// recorded, or nil when n is 0.
func stopAfterLeaves(leaves *[]scoredLeaf, n int) func() bool {
	if n == 0 {
		return nil
	}
	return func() bool { return len(*leaves) >= n }
}
