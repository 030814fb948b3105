package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
)

// fakeWindowEval scores a window by hashing its segments with a salt, so
// differential tests see varied, placement-dependent scores (ties
// included) without running the evaluator.
func fakeWindowEval(salt uint64, segs []eval.Segment) eval.WindowEval {
	h := fnv.New64a()
	fmt.Fprint(h, salt)
	for _, s := range segs {
		fmt.Fprint(h, s.Model, s.First, s.Last, s.Chiplet)
	}
	v := h.Sum64()
	return eval.WindowEval{
		LatencySec: float64(v%97+1) / 8,
		EnergyJ:    float64(v>>32%89+1) / 4,
		NumLayers:  len(segs),
	}
}

// randomPlans draws 1..maxModels plans with 1..maxSegs segments each over
// random layer ranges.
func randomPlans(rng *rand.Rand, maxModels, maxSegs int) []modelPlan {
	plans := make([]modelPlan, 1+rng.Intn(maxModels))
	for i := range plans {
		layers := 1 + rng.Intn(8)
		nseg := 1 + rng.Intn(min(maxSegs, layers))
		cuts := rng.Perm(layers - 1)[:nseg-1]
		slices.Sort(cuts)
		first := rng.Intn(5)
		plans[i] = modelPlan{
			model: i,
			r:     layerRange{First: first, Last: first + layers - 1},
			ends:  append(cuts, layers-1),
		}
	}
	return plans
}

// treeSearchRecorder runs one tree search on the random stream rng with
// a recording fake evaluator and a stop check that fires on the
// stopAfter-th leaf (never when stopAfter is 0).
func treeSearchRecorder[R any](
	search func(func([]eval.Segment) eval.WindowEval, [][]bool, int, []modelPlan, Objective, int, int, R, bool, func() bool) treeResult,
	salt uint64, adj [][]bool, plans []modelPlan, obj Objective, maxTrees, budget int, rng R, free bool, stopAfter int,
) (treeResult, [][]eval.Segment) {
	var seen [][]eval.Segment
	evalWin := func(segs []eval.Segment) eval.WindowEval {
		seen = append(seen, slices.Clone(segs))
		return fakeWindowEval(salt, segs)
	}
	var stop func() bool
	if stopAfter > 0 {
		stop = func() bool { return len(seen) >= stopAfter }
	}
	res := search(evalWin, adj, len(adj), plans, obj, maxTrees, budget, rng, free, stop)
	return res, seen
}

// fullTreeSearch is treeSearch scoring every leaf in full, in the
// reference's signature but for the random source.
func fullTreeSearch(
	evalWin func([]eval.Segment) eval.WindowEval, adj [][]bool, chiplets int,
	plans []modelPlan, obj Objective, maxTrees, budget int, src *randSource, free bool, stop func() bool,
) treeResult {
	return treeSearch(nil, evalWin, adj, chiplets, plans, obj, maxTrees, budget, src, free, stop)
}

// Property: treeSearch returns the reference DFS's result and scores the
// same windows in the same order, on mesh, triangular and custom-link
// packages, with and without free placement, at budgets down to 1 and
// under a stop check that fires mid-search.
func TestTreeSearchMatchesReference(t *testing.T) {
	spec := maestro.DefaultDatacenterChiplet()
	ring, err := goldenRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*mcm.MCM{
		mcm.HetCB(3, 3, spec),
		mcm.Simba(6, 6, dfNVD(), spec),
		mcm.HetT(3, 3, spec),
		mcm.HetT(4, 4, spec),
		ring,
	}
	objectives := []Objective{LatencyObjective(), EnergyObjective(), EDPObjective()}
	trials := 600
	if testing.Short() {
		trials = 150
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		pkg := pkgs[trial%len(pkgs)]
		adj := pkg.AdjacencyMatrix()
		maxModels, maxSegs := 4, 5
		if pkg.NumChiplets() > 16 {
			// Keep the reference's exhaustive walks short on 6x6.
			maxModels, maxSegs = 3, 4
		}
		plans := randomPlans(rng, maxModels, maxSegs)
		obj := objectives[rng.Intn(len(objectives))]
		maxTrees := 1 + rng.Intn(40)
		budget := 1 + rng.Intn(300)
		if rng.Intn(4) == 0 {
			budget = 1
		}
		// Free placement makes the reference's walks combinatorial on
		// anything larger than 3x3.
		free := pkg.NumChiplets() <= 9 && rng.Intn(2) == 0
		stopAfter := 0
		if rng.Intn(3) == 0 {
			stopAfter = 1 + rng.Intn(20)
		}
		seed := rng.Int63()
		salt := rng.Uint64()

		want, wantSeen := treeSearchRecorder(referenceTreeSearch, salt, adj, plans, obj, maxTrees, budget, rand.New(rand.NewSource(seed)), free, stopAfter)
		got, gotSeen := treeSearchRecorder(fullTreeSearch, salt, adj, plans, obj, maxTrees, budget, newRandSource(seed), free, stopAfter)
		label := fmt.Sprintf("trial %d (%s, %d plans, maxTrees %d, budget %d, free %v, stop after %d)",
			trial, pkg.Name, len(plans), maxTrees, budget, free, stopAfter)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result %+v, want %+v", label, got, want)
		}
		if !reflect.DeepEqual(gotSeen, wantSeen) {
			t.Fatalf("%s: scored %d windows, reference %d, or in another order", label, len(gotSeen), len(wantSeen))
		}
	}
}

// Property: on packages of up to 256 chiplets rootTuples returns the
// reference's tuples, also when maxTrees exceeds the tuple space and
// sampling stops early.
func TestRootTuplesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		chiplets := 1 + rng.Intn(40)
		if trial%10 == 0 {
			chiplets = 200 + rng.Intn(57)
		}
		arity := rng.Intn(min(chiplets, 5) + 1)
		maxTrees := 1 + rng.Intn(80)
		seed := rng.Int63()
		got := rootTuples(chiplets, arity, maxTrees, newRandSource(seed))
		want := referenceRootTuples(chiplets, arity, maxTrees, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rootTuples(%d, %d, %d, seed %d) = %v, want %v", chiplets, arity, maxTrees, seed, got, want)
		}
	}
}

// Chiplet IDs of 256 and above must not alias lower IDs in the tuple
// dedup: with 257 single-chiplet tuples asked for, every chiplet roots
// exactly one tree.
func TestRootTuplesBeyond256Chiplets(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tuples := rootTuples(257, 1, 257, newRandSource(seed))
		if len(tuples) != 257 {
			t.Fatalf("seed %d: %d tuples, want 257", seed, len(tuples))
		}
		roots := make([]int, len(tuples))
		for i, tp := range tuples {
			roots[i] = tp[0]
		}
		slices.Sort(roots)
		for i, r := range roots {
			if r != i {
				t.Fatalf("seed %d: sorted roots %v..., want every chiplet 0..256 once", seed, roots[:i+1])
			}
		}
	}
}
