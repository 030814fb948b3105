package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
)

func TestEvolutionarySchedule3x3(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Search = SearchEvolutionary
	s := New(db, opts)
	res, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatalf("evolutionary Schedule: %v", err)
	}
	if err := res.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
	if res.Metrics.EDP <= 0 {
		t.Errorf("EDP = %v", res.Metrics.EDP)
	}
}

func TestEvolutionarySchedule6x6(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCross(maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Search = SearchEvolutionary
	s := New(db, opts)
	res, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatalf("6x6 evolutionary Schedule: %v", err)
	}
	if err := res.Schedule.Validate(&sc, pkg); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestEvolutionaryDeterministic(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Search = SearchEvolutionary
	s := New(db, opts)
	a, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.EDP != b.Metrics.EDP {
		t.Errorf("non-deterministic GA schedule: %v vs %v", a.Metrics.EDP, b.Metrics.EDP)
	}
}

func TestEvoDecodeCutHandlingDeterministic(t *testing.T) {
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	next := successors(pkg.AdjacencyMatrix(), false)
	var buf decodeBuf
	// One 6-layer model asking for 4 segments: three cut genes plus a
	// root gene and a path-seed gene.
	g := buildEvoGenome([]int{0}, []layerRange{{First: 0, Last: 5}}, []int{4}, pkg.NumChiplets())
	// Duplicate cuts (2, 2) collapse and an out-of-range cut (7 >= L-1)
	// is dropped, leaving the single real split {2}: two segments.
	genes := []int{2, 2, 7, 0, 3}
	first, ok := g.decode(genes, next, &buf)
	if !ok {
		t.Fatal("decode rejected a feasible genome")
	}
	first = slices.Clone(first)
	if len(first) != 2 {
		t.Fatalf("segments = %+v, want 2 (cut set {2})", first)
	}
	if first[0].First != 0 || first[0].Last != 2 || first[1].First != 3 || first[1].Last != 5 {
		t.Errorf("segment bounds = %+v, want [0,2] and [3,5]", first)
	}
	// Decoding the same genes must be bit-identical on every run, on a
	// reused buffer as on a fresh one.
	for i := 0; i < 100; i++ {
		b := &buf
		if i%2 == 1 {
			b = &decodeBuf{}
		}
		segs, ok := g.decode(genes, next, b)
		if !ok || !reflect.DeepEqual(segs, first) {
			t.Fatalf("iteration %d: decode diverged: %+v vs %+v", i, segs, first)
		}
	}
}

func TestGreedyPathProperties(t *testing.T) {
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	adj := pkg.AdjacencyMatrix()
	next := successors(adj, false)
	used := make([]uint64, words(len(adj)))
	for seed := 0; seed < 16; seed++ {
		path, ok := greedyPath(next, 0, 4, used, seed, nil)
		if !ok {
			t.Fatalf("seed %d: no path of length 4 from corner", seed)
		}
		if len(path) != 4 {
			t.Fatalf("seed %d: path length %d", seed, len(path))
		}
		seen := map[int]bool{}
		for i, c := range path {
			if seen[c] {
				t.Fatalf("seed %d: revisits chiplet %d", seed, c)
			}
			seen[c] = true
			if i > 0 && !adj[path[i-1]][c] {
				t.Fatalf("seed %d: non-adjacent step %d->%d", seed, path[i-1], c)
			}
			if used[c>>6]&(1<<(c&63)) == 0 {
				t.Fatalf("seed %d: path chiplet %d left unmarked", seed, c)
			}
		}
		clear(used)
	}
	// Occupied root fails and leaves used as it was.
	used[0] = 1
	if _, ok := greedyPath(next, 0, 2, used, 0, nil); ok {
		t.Error("path from occupied root accepted")
	}
	if used[0] != 1 {
		t.Errorf("failed walk changed used to %b", used[0])
	}
}

func TestGreedyPathDeadEnd(t *testing.T) {
	pkg := mcm.Simba(2, 2, dfNVD(), maestro.DefaultDatacenterChiplet())
	next := successors(pkg.AdjacencyMatrix(), false)
	used := []uint64{1<<1 | 1<<2}
	// From chiplet 0 both neighbors (1, 2) are used: length-2 paths are
	// impossible, and the failed walk unmarks its root.
	if _, ok := greedyPath(next, 0, 2, used, 3, nil); ok {
		t.Error("dead-end path accepted")
	}
	if used[0] != 1<<1|1<<2 {
		t.Errorf("failed walk changed used to %b", used[0])
	}
}

// Property: greedyPath over successor bitsets walks the same path as
// the adjacency-matrix scan it replaced, from random roots, seeds,
// lengths and used sets, on packages of one and of two bitset words and
// on an irregular ring. A successful walk leaves exactly its path marked
// in used; a failed one leaves used as it was.
func TestGreedyPathMatchesReference(t *testing.T) {
	spec := maestro.DefaultDatacenterChiplet()
	ring, err := goldenRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []*mcm.MCM{
		mcm.HetCB(3, 3, spec),
		mcm.HetCross(spec),
		mcm.HetSides(9, 9, spec),
		ring,
	} {
		t.Run(pkg.Name, func(t *testing.T) {
			adj := pkg.AdjacencyMatrix()
			n := len(adj)
			next := successors(adj, false)
			rng := rand.New(rand.NewSource(int64(n)))
			refUsed := make([]bool, n)
			used := make([]uint64, words(n))
			var path []int
			outcomes := map[bool]int{}
			for trial := 0; trial < 3000; trial++ {
				clear(used)
				density := rng.Float64() / 2
				for c := range refUsed {
					refUsed[c] = rng.Float64() < density
					if refUsed[c] {
						used[c>>6] |= 1 << (c & 63)
					}
				}
				before := slices.Clone(used)
				// Half the walks are short, so most of those succeed.
				root, length, seed := rng.Intn(n), 1+rng.Intn(n), rng.Intn(256)
				if trial%2 == 0 {
					length = 1 + rng.Intn(min(n, 8))
				}
				want, wantOK := greedyPathReference(adj, root, length, refUsed, seed)
				var ok bool
				path, ok = greedyPath(next, root, length, used, seed, path)
				if ok != wantOK || (ok && !slices.Equal(path, want)) {
					t.Fatalf("trial %d (root %d, length %d, seed %d): got %v %v, want %v %v",
						trial, root, length, seed, path, ok, want, wantOK)
				}
				outcomes[ok]++
				if ok {
					for _, c := range path {
						before[c>>6] |= 1 << (c & 63)
					}
				}
				if !slices.Equal(used, before) {
					t.Fatalf("trial %d: used = %b after the walk, want %b", trial, used, before)
				}
			}
			if outcomes[true] < 300 || outcomes[false] < 300 {
				t.Fatalf("%d walks succeeded and %d failed, want at least 300 of each", outcomes[true], outcomes[false])
			}
		})
	}
}

// A warm decode allocates nothing, on feasible and infeasible genomes
// alike: every buffer it writes is the worker's.
func TestDecodeZeroAllocs(t *testing.T) {
	pkg := mcm.HetCross(maestro.DefaultEdgeChiplet())
	next := successors(pkg.AdjacencyMatrix(), false)
	g := buildEvoGenome([]int{0, 1, 2},
		[]layerRange{{First: 0, Last: 40}, {First: 3, Last: 20}, {First: 0, Last: 9}},
		[]int{6, 4, 3}, pkg.NumChiplets())
	rng := rand.New(rand.NewSource(1))
	var buf decodeBuf
	seen := map[bool]int{}
	for trial := 0; trial < 200 && (seen[true] < 5 || seen[false] < 5); trial++ {
		genes := make([]int, len(g.spans))
		for j, span := range g.spans {
			genes[j] = rng.Intn(span)
		}
		_, ok := g.decode(genes, next, &buf)
		if seen[ok] >= 5 {
			continue
		}
		seen[ok]++
		if n := testing.AllocsPerRun(50, func() { g.decode(genes, next, &buf) }); n != 0 {
			t.Errorf("decode (feasible %v) made %v allocs/op on a warm buffer, want 0", ok, n)
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("sampled genomes cover feasible %d and infeasible %d times, want both", seen[true], seen[false])
	}
}

// sphere is a separable convex fitness with its minimum at target.
func sphere(target []int) func([]int) float64 {
	return func(g []int) float64 {
		var s float64
		for i, v := range g {
			d := float64(v - target[i])
			s += d * d
		}
		return s
	}
}

// Property: at the paper's hyperparameters evolve is the generic GA
// engine it replaced. Over random gene spans, fitness functions with
// infeasible (+Inf) regions and ties, and stop checks that fire after N
// evaluations, it scores the same genomes in the same order and returns
// the same best genome, fitness and stop flag.
func TestEvolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		spans := make([]int, 1+rng.Intn(8))
		for j := range spans {
			spans[j] = 1 + rng.Intn(300)
			if rng.Intn(4) == 0 {
				spans[j] = 1 + rng.Intn(3)
			}
		}
		// infeasible of 8 hash buckets score +Inf: none, some, or all.
		infeasible := uint64(rng.Intn(9))
		salt := rng.Uint64()
		stopAfter := 0
		if rng.Intn(3) == 0 {
			stopAfter = 1 + rng.Intn(60)
		}
		seed := rng.Int63()

		record := func(seen *[][]int) (func([]int) float64, func() bool) {
			fitness := func(g []int) float64 {
				*seen = append(*seen, slices.Clone(g))
				h := salt
				for _, v := range g {
					h = (h ^ uint64(v)) * 1099511628211
				}
				if h%8 < infeasible {
					return math.Inf(1)
				}
				return float64(h >> 8 % 64)
			}
			var stop func() bool
			if stopAfter > 0 {
				stop = func() bool { return len(*seen) >= stopAfter }
			}
			return fitness, stop
		}

		var wantSeen [][]int
		fitness, stop := record(&wantSeen)
		bounds := make([]refRange, len(spans))
		for j, n := range spans {
			bounds[j] = refRange{Min: 0, Max: n - 1}
		}
		o := refDefaultOptions()
		o.Seed = seed
		want, err := referenceGA(refProblem{Bounds: bounds, Fitness: fitness, Stop: stop}, o)
		if (err != nil) != (want.Best == nil) {
			t.Fatalf("trial %d: reference error %v with best %v", trial, err, want.Best)
		}

		var gotSeen [][]int
		fitness, stop = record(&gotSeen)
		best, fit, stopped := evolve(spans, fitness, stop, seed)

		label := fmt.Sprintf("trial %d (spans %v, %d/8 infeasible, stop after %d)", trial, spans, infeasible, stopAfter)
		if !reflect.DeepEqual(best, want.Best) || fit != want.BestFitness || stopped != want.Stopped {
			t.Fatalf("%s: best %v fitness %v stopped %v, reference %v %v %v",
				label, best, fit, stopped, want.Best, want.BestFitness, want.Stopped)
		}
		if !reflect.DeepEqual(gotSeen, wantSeen) {
			t.Fatalf("%s: scored %d genomes, reference %d, or in another order", label, len(gotSeen), len(wantSeen))
		}
	}
}

func TestGAFindsEasyOptimum(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		best, fit, _ := evolve([]int{6, 6}, sphere([]int{3, 3}), nil, seed)
		if fit > 2 {
			t.Errorf("seed %d: best fitness %v, want near 0 (best %v)", seed, fit, best)
		}
	}
}

func TestGADeterministic(t *testing.T) {
	a, aFit, _ := evolve([]int{100, 100}, sphere([]int{50, 51}), nil, 1)
	b, bFit, _ := evolve([]int{100, 100}, sphere([]int{50, 51}), nil, 1)
	if aFit != bFit || !slices.Equal(a, b) {
		t.Errorf("non-deterministic: %v (%v) vs %v (%v)", a, aFit, b, bFit)
	}
}

func TestGAHandlesInfeasibleRegions(t *testing.T) {
	// Half the space is infeasible; the GA must still return a feasible
	// genome.
	best, _, _ := evolve([]int{10}, func(g []int) float64 {
		if g[0]%2 == 1 {
			return math.Inf(1)
		}
		return float64(g[0])
	}, nil, 1)
	if best == nil || best[0]%2 == 1 {
		t.Errorf("infeasible best genome %v", best)
	}
}

// Property: the best genome always lies within its spans, and a run
// stopped after n evaluations never beats the full run of the same seed.
func TestQuickGABoundsAndMonotone(t *testing.T) {
	f := func(seed int64, t3, n uint8) bool {
		spans := []int{8, 5, 3}
		fitness := sphere([]int{int(t3 % 8), int(t3 % 5), int(t3 % 3)})
		full, fullFit, _ := evolve(spans, fitness, nil, seed)
		evals := 0
		counted := func(g []int) float64 {
			evals++
			return fitness(g)
		}
		_, stoppedFit, _ := evolve(spans, counted, func() bool { return evals >= int(n%50) }, seed)
		for i, v := range full {
			if v < 0 || v >= spans[i] {
				return false
			}
		}
		return fullFit <= stoppedFit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
