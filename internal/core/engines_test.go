package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

func TestGreedyPackSingleWindow(t *testing.T) {
	exp := [][]float64{{1, 1, 1}, {2, 2}}
	p := greedyPack(exp, timeHorizon(exp), 0)
	if len(p.windows) != 1 {
		t.Fatalf("windows = %d, want 1", len(p.windows))
	}
	w := p.windows[0]
	if w[0] != (layerRange{0, 2}) || w[1] != (layerRange{0, 1}) {
		t.Errorf("assignment = %v", w)
	}
}

func TestGreedyPackCoversAllLayers(t *testing.T) {
	exp := [][]float64{
		{5, 1, 1, 1, 4, 2, 2},
		{3, 3, 3, 3},
	}
	for nsplits := 0; nsplits <= 4; nsplits++ {
		p := greedyPack(exp, timeHorizon(exp), nsplits)
		for mi, lats := range exp {
			covered := make([]bool, len(lats))
			prevLast := -1
			for _, w := range p.windows {
				r := w[mi]
				if r.empty() {
					continue
				}
				if r.First != prevLast+1 {
					t.Fatalf("nsplits=%d model %d: range %v not contiguous after %d", nsplits, mi, r, prevLast)
				}
				for i := r.First; i <= r.Last; i++ {
					covered[i] = true
				}
				prevLast = r.Last
			}
			for i, c := range covered {
				if !c {
					t.Fatalf("nsplits=%d model %d layer %d uncovered", nsplits, mi, i)
				}
			}
		}
	}
}

func TestGreedyPackDefersCrossBoundaryLayer(t *testing.T) {
	// Horizon 10, 1 split -> boundary at 5. Model layers 4, 4: the
	// second layer (would end at 8 > 5) must defer to window 2.
	exp := [][]float64{{4, 4}, {10}}
	p := greedyPack(exp, 10, 1)
	if len(p.windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(p.windows))
	}
	if p.windows[0][0] != (layerRange{0, 0}) {
		t.Errorf("window 0 model 0 = %v, want [0,0]", p.windows[0][0])
	}
	if p.windows[1][0] != (layerRange{1, 1}) {
		t.Errorf("window 1 model 0 = %v, want [1,1]", p.windows[1][0])
	}
}

func TestGreedyPackSkipsEmptyWindows(t *testing.T) {
	// All layers fit the first window; remaining windows are trivial
	// and must be dropped.
	exp := [][]float64{{0.1, 0.1}, {0.1}}
	p := greedyPack(exp, 100, 3)
	if len(p.windows) != 1 {
		t.Errorf("windows = %d, want 1 (empty windows skipped)", len(p.windows))
	}
}

func TestUniformPackBalancesCounts(t *testing.T) {
	sc := workload.NewScenario("s",
		workload.NewModel("a", 1, make([]workload.Layer, 10)),
		workload.NewModel("b", 1, make([]workload.Layer, 4)),
	)
	p := uniformPack(&sc, 1)
	if len(p.windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(p.windows))
	}
	if p.windows[0][0].numLayers() != 5 || p.windows[1][0].numLayers() != 5 {
		t.Errorf("model a split %d/%d, want 5/5",
			p.windows[0][0].numLayers(), p.windows[1][0].numLayers())
	}
	if p.windows[0][1].numLayers() != 2 || p.windows[1][1].numLayers() != 2 {
		t.Errorf("model b split %d/%d, want 2/2",
			p.windows[0][1].numLayers(), p.windows[1][1].numLayers())
	}
}

func TestCandidatePartitioningsDeduped(t *testing.T) {
	r := &run{expLat: [][]float64{{1, 1}, {1}}, opts: Options{NSplits: 4}}
	cands := candidatePartitionings(r, greedyPacking)
	if len(cands) == 5 {
		t.Fatal("no candidate deduplicated")
	}
	for i := range cands {
		for j := range i {
			if reflect.DeepEqual(cands[i].windows, cands[j].windows) {
				t.Errorf("candidates %d and %d have the same windows %v", j, i, cands[i].windows)
			}
		}
	}
}

// Candidates whose layer ranges differ only above the low 16 bits are
// distinct: a workload_json model has no layer cap.
func TestCandidatePartitioningsKeepsWideRanges(t *testing.T) {
	r := &run{opts: Options{NSplits: 1}}
	pack := func(_ *run, splits int) partitioning {
		w := windowAssignment{{First: splits * 65536, Last: 70000}}
		return partitioning{splits: splits, windows: []windowAssignment{w}}
	}
	cands := candidatePartitionings(r, pack)
	if len(cands) != 2 {
		t.Fatalf("%d candidates %v, want both of First 0 and 65536", len(cands), cands)
	}
}

func TestProvisionRuleProportions(t *testing.T) {
	alloc, err := provisionRule([]float64{3, 1}, []int{100, 100}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 6 || alloc[1] != 2 {
		t.Errorf("alloc = %v, want [6 2]", alloc)
	}
}

func TestProvisionRuleMinimumOne(t *testing.T) {
	alloc, err := provisionRule([]float64{1000, 0.001}, []int{50, 50}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[1] < 1 {
		t.Errorf("starved model: alloc = %v", alloc)
	}
	if sum(alloc) > 4 {
		t.Errorf("over-allocated: %v", alloc)
	}
}

func TestProvisionRuleRespectsLayerCount(t *testing.T) {
	alloc, err := provisionRule([]float64{10, 1}, []int{2, 9}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] > 2 {
		t.Errorf("alloc %v exceeds model 0's 2 layers", alloc)
	}
}

func TestProvisionRuleCap(t *testing.T) {
	alloc, err := provisionRule([]float64{10, 1}, []int{50, 50}, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alloc {
		if a > 3 {
			t.Errorf("Heuristic 2 cap violated: %v", alloc)
		}
	}
}

func TestProvisionRuleTooManyModels(t *testing.T) {
	if _, err := provisionRule([]float64{1, 1, 1}, []int{5, 5, 5}, 2, 0); err == nil {
		t.Error("3 models on 2 chiplets accepted")
	}
}

func TestProvisionExhaustive(t *testing.T) {
	opts, err := provisionExhaustive([]float64{1, 1}, []int{10, 10}, 4, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) < 3 {
		t.Fatalf("exhaustive options = %d, want >= 3", len(opts))
	}
	// First option is the rule-based allocation.
	rule, _ := provisionRule([]float64{1, 1}, []int{10, 10}, 4, 0)
	if !slices.Equal(opts[0], rule) {
		t.Errorf("first option %v != rule %v", opts[0], rule)
	}
	for _, o := range opts[1:] {
		if sum(o) != 4 {
			t.Errorf("option %v does not use the package", o)
		}
		for _, v := range o {
			if v < 1 {
				t.Errorf("option %v starves a model", o)
			}
		}
	}
}

func TestEnumerateSegmentations(t *testing.T) {
	// 4 layers, up to 2 segments: 1 + C(3,1) = 4 candidates.
	var cands [][]int
	enumerateSegmentations(4, 2, func(ends []int) { cands = append(cands, slices.Clone(ends)) })
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want 4", len(cands))
	}
	for _, ends := range cands {
		if ends[len(ends)-1] != 3 {
			t.Errorf("segmentation %v does not end at the last layer", ends)
		}
		for i := 1; i < len(ends); i++ {
			if ends[i] <= ends[i-1] {
				t.Errorf("segmentation %v not strictly increasing", ends)
			}
		}
	}
}

func TestSegSpaceSizeSaturates(t *testing.T) {
	if got := segSpaceSize(4, 2, 1000); got != 4 {
		t.Errorf("segSpaceSize(4,2) = %d, want 4", got)
	}
	if got := segSpaceSize(200, 5, 1000); got != 1001 {
		t.Errorf("segSpaceSize(200,5) = %d, want saturation at 1001", got)
	}
}

func TestSegmentCandidatesSortedAndValid(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	model := workload.NewModel("m", 4, []workload.Layer{
		workload.Conv("l0", 64, 64, 58, 58, 3, 1),
		workload.Conv("l1", 64, 64, 58, 58, 3, 1),
		workload.Conv("l2", 64, 128, 58, 58, 3, 1),
		workload.Conv("l3", 128, 128, 30, 30, 3, 1),
		workload.GEMM("l4", 64, 512, 512),
	})
	sc := workload.NewScenario("s", model)
	expLat, expE := db.ExpectedLayers(&sc, pkg)
	rng := rand.New(rand.NewSource(7))
	// k = 100 exceeds the 1+4+6 candidates, so every candidate returns.
	cands := segmentCandidates(model.Batch, layerRange{0, 4}, 3, 100, expLat[0], expE[0], outputBytes(&sc)[0], pkg, EDPObjective(), DefaultOptions(), rng, 7)
	if len(cands) == 0 {
		t.Fatal("no segmentation candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].score < cands[i-1].score {
			t.Fatal("candidates not sorted by score")
		}
	}
	for _, c := range cands {
		if c.ends[len(c.ends)-1] != 4 {
			t.Errorf("candidate %v does not cover all layers", c.ends)
		}
		if c.numSegments() > 3 {
			t.Errorf("candidate %v exceeds node allocation", c.ends)
		}
	}
}

func TestSampledSegmentationsRespectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lat := make([]float64, 120)
	for i := range lat {
		lat[i] = float64(1 + i%7)
	}
	var cands [][]int
	sampledSegmentations(120, 5, lat, 50, rng, func(ends []int) { cands = append(cands, slices.Clone(ends)) })
	if len(cands) == 0 {
		t.Fatal("no sampled candidates")
	}
	for _, ends := range cands {
		if len(ends) > 5 {
			t.Errorf("sampled %v has too many segments", ends)
		}
		if ends[len(ends)-1] != 119 {
			t.Errorf("sampled %v does not end at last layer", ends)
		}
		for i := 1; i < len(ends); i++ {
			if ends[i] <= ends[i-1] {
				t.Errorf("sampled %v not increasing", ends)
			}
		}
	}
}

func TestRootTuplesInjectiveAndCapped(t *testing.T) {
	src := newRandSource(1)
	tuples := rootTuples(9, 3, 20, src)
	if len(tuples) == 0 || len(tuples) > 20 {
		t.Fatalf("tuples = %d, want 1..20", len(tuples))
	}
	// Canonical first.
	if tuples[0][0] != 0 || tuples[0][1] != 1 || tuples[0][2] != 2 {
		t.Errorf("first tuple %v not canonical", tuples[0])
	}
	seen := map[string]bool{}
	for _, tp := range tuples {
		inTuple := map[int]bool{}
		for _, c := range tp {
			if c < 0 || c >= 9 {
				t.Fatalf("chiplet %d out of range", c)
			}
			if inTuple[c] {
				t.Fatalf("tuple %v not injective", tp)
			}
			inTuple[c] = true
		}
		k := string(appendIntsKey(nil, tp))
		if seen[k] {
			t.Fatalf("duplicate tuple %v", tp)
		}
		seen[k] = true
	}
	if got := rootTuples(2, 3, 10, src); got != nil {
		t.Error("arity > chiplets should yield nil")
	}
}

func TestRankedCombos(t *testing.T) {
	topk := [][]segCandidate{
		{{score: 1}, {score: 2}},
		{{score: 1}, {score: 3}, {score: 9}},
	}
	combos := rankedCombos(topk, 100)
	if len(combos) != 6 {
		t.Fatalf("combos = %d, want 6", len(combos))
	}
	// Best-first: (0,0) must come first.
	if combos[0][0] != 0 || combos[0][1] != 0 {
		t.Errorf("first combo = %v, want [0 0]", combos[0])
	}
	capped := rankedCombos(topk, 2)
	if len(capped) != 2 {
		t.Errorf("capped combos = %d, want 2", len(capped))
	}
}

func TestObjectiveProxies(t *testing.T) {
	if got := LatencyObjective().proxy(2, 5); got != 2 {
		t.Errorf("latency proxy = %v", got)
	}
	if got := EnergyObjective().proxy(2, 5); got != 5 {
		t.Errorf("energy proxy = %v", got)
	}
	if got := EDPObjective().proxy(2, 5); got != 10 {
		t.Errorf("edp proxy = %v", got)
	}
	if _, err := ObjectiveByName("edp"); err != nil {
		t.Error(err)
	}
	if _, err := ObjectiveByName("bogus"); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestTreeSearchRespectsAdjacencyAndExclusivity(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.Simba(3, 3, dataflow.NVDLA(), maestro.DefaultDatacenterChiplet())
	a := workload.NewModel("a", 4, []workload.Layer{
		workload.Conv("a0", 64, 64, 58, 58, 3, 1),
		workload.Conv("a1", 64, 64, 58, 58, 3, 1),
		workload.Conv("a2", 64, 64, 58, 58, 3, 1),
	})
	b := workload.NewModel("b", 4, []workload.Layer{
		workload.GEMM("b0", 64, 512, 512),
		workload.GEMM("b1", 64, 512, 512),
	})
	sc := workload.NewScenario("s", a, b)
	comp := evalNew(db, pkg, &sc).Compile()
	scratch := comp.NewScratch()
	plans := []modelPlan{
		{model: 0, r: layerRange{0, 2}, ends: []int{0, 1, 2}}, // 3 segments
		{model: 1, r: layerRange{0, 1}, ends: []int{0, 1}},    // 2 segments
	}
	evalWin := func(segs []eval.Segment) eval.WindowEval {
		return comp.WindowEval(scratch, eval.TimeWindow{Segments: segs})
	}
	res := treeSearch(nil, evalWin, pkg.AdjacencyMatrix(), pkg.NumChiplets(), plans, EDPObjective(), 30, 500, newRandSource(5), false, nil)
	if !res.found {
		t.Fatal("tree search found nothing")
	}
	used := map[int]bool{}
	perModel := map[int][]int{}
	for _, s := range res.segments {
		if used[s.Chiplet] {
			t.Fatalf("chiplet %d shared between segments (exclusivity violated)", s.Chiplet)
		}
		used[s.Chiplet] = true
		perModel[s.Model] = append(perModel[s.Model], s.Chiplet)
	}
	for mi, path := range perModel {
		for i := 1; i < len(path); i++ {
			if pkg.Hops(path[i-1], path[i]) != 1 {
				t.Errorf("model %d path %v not adjacency-respecting", mi, path)
			}
		}
	}
	if res.evals == 0 {
		t.Error("no evaluations counted")
	}
}
