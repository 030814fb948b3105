package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// TestLinkLoadsMatchReference: over random windows — segments listed out
// of first-layer order, repeated chiplets fusing into one stage — on 3x3
// and 6x6 meshes and Het-Sides packages, the compiled LinkLoads equals
// the legacy stage-grouping one exactly, including for a hand-built
// Batch-0 model, which moves no bytes.
func TestLinkLoadsMatchReference(t *testing.T) {
	spec := maestro.DefaultDatacenterChiplet()
	packages := []*mcm.MCM{
		mcm.Simba(3, 3, dataflow.NVDLA(), spec),
		mcm.Simba(6, 6, dataflow.NVDLA(), spec),
		mcm.HetSides(3, 3, spec),
		mcm.HetSides(6, 6, spec),
	}
	db := costdb.New(maestro.DefaultParams())
	// The windows that loaded a link, and the links that carried a zero
	// charge (the Batch-0 model's): both must occur, or the comparison
	// proves nothing.
	loaded, zeroCharged := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := randScenario(rng)
		if seed%2 == 1 {
			zero := workload.Model{Name: "raw", Batch: 0, Layers: []workload.Layer{
				workload.GEMM("z0", 8, 16, 16),
				workload.GEMM("z1", 8, 16, 32),
				workload.GEMM("z2", 8, 32, 16),
			}}
			sc = workload.NewScenario(sc.Name, append(sc.Models, zero)...)
		}
		pkg := packages[int(seed)%len(packages)]
		c := Compile(db, pkg, &sc, DefaultOptions())
		ref := newReference(db, pkg, &sc, DefaultOptions())
		for wi := 0; wi < 64; wi++ {
			w := randWindow(rng, &sc, pkg.NumChiplets())
			if len(w.Segments) == 0 {
				continue
			}
			got, want := c.LinkLoads(w), ref.referenceLinkLoads(w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%s) window %d %v:\ngot  %v\nwant %v", seed, pkg.Name, wi, w.Segments, got, want)
			}
			if len(got) > 0 {
				loaded++
			}
			for _, bytes := range got {
				if bytes == 0 {
					zeroCharged++
				}
			}
		}
	}
	if loaded == 0 || zeroCharged == 0 {
		t.Fatalf("vacuous comparison: %d windows loaded a link, %d zero-byte links", loaded, zeroCharged)
	}
}

func TestLinkLoadsEmptyForSingleChiplet(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	w := TimeWindow{Segments: []Segment{
		{Model: 0, First: 0, Last: 3, Chiplet: 0},
		{Model: 1, First: 0, Last: 2, Chiplet: 4},
	}}
	if loads := c.LinkLoads(w); len(loads) != 0 {
		t.Errorf("single-chiplet models produced link loads: %v", loads)
	}
	if _, max := c.MaxLinkLoad(w); max != 0 {
		t.Errorf("MaxLinkLoad = %d, want 0", max)
	}
}

func TestLinkLoadsFollowRoute(t *testing.T) {
	db, pkg, sc := testRig(2)
	c := Compile(db, pkg, sc, DefaultOptions())
	// Model 0 pipelines chiplet 0 -> 2: XY route passes through 1.
	w := TimeWindow{Segments: []Segment{
		{Model: 0, First: 0, Last: 1, Chiplet: 0},
		{Model: 0, First: 2, Last: 3, Chiplet: 2},
		{Model: 1, First: 0, Last: 2, Chiplet: 6},
	}}
	loads := c.LinkLoads(w)
	if len(loads) != 2 {
		t.Fatalf("loads = %v, want 2 links (0->1, 1->2)", loads)
	}
	l01 := loads[mcm.Link{From: 0, To: 1}]
	l12 := loads[mcm.Link{From: 1, To: 2}]
	if l01 == 0 || l01 != l12 {
		t.Errorf("route links unequal: 0->1 %d, 1->2 %d", l01, l12)
	}
	// The transfer carries the boundary layer's input for the whole
	// batch.
	want := sc.Models[0].Layers[2].WithBatch(1).InputBytes() * int64(sc.Models[0].Batch)
	if l01 != want {
		t.Errorf("link bytes = %d, want %d", l01, want)
	}
	link, max := c.MaxLinkLoad(w)
	if max != l01 {
		t.Errorf("MaxLinkLoad = %d, want %d", max, l01)
	}
	if link.From != 0 && link.From != 1 {
		t.Errorf("hottest link = %+v", link)
	}
}

func TestMaxLinkLoadTieBreakDeterministic(t *testing.T) {
	db, pkg, sc := testRig(2)
	c := Compile(db, pkg, sc, DefaultOptions())
	// Model 0's 0->2 route loads links 0->1 and 1->2 with identical byte
	// counts: a tie whose winner must not depend on map iteration order.
	// The contract is the smallest (From, To) among the maxima.
	w := TimeWindow{Segments: []Segment{
		{Model: 0, First: 0, Last: 1, Chiplet: 0},
		{Model: 0, First: 2, Last: 3, Chiplet: 2},
	}}
	want := mcm.Link{From: 0, To: 1}
	for i := 0; i < 200; i++ {
		link, max := c.MaxLinkLoad(w)
		if max == 0 {
			t.Fatal("tied window reported no traffic")
		}
		if link != want {
			t.Fatalf("iteration %d: hottest link = %+v, want %+v (smallest of the tied pair)", i, link, want)
		}
	}
}

func TestLinkLoadsSharedLinkAccumulates(t *testing.T) {
	db, pkg, sc := testRig(1)
	c := Compile(db, pkg, sc, DefaultOptions())
	// Both models cross link 1->2 (model 0 via 0->2 XY, model 1 via
	// 1->2).
	w := TimeWindow{Segments: []Segment{
		{Model: 0, First: 0, Last: 1, Chiplet: 0},
		{Model: 0, First: 2, Last: 3, Chiplet: 2},
		{Model: 1, First: 0, Last: 1, Chiplet: 1},
		{Model: 1, First: 2, Last: 2, Chiplet: 2},
	}}
	_ = w
	// Chiplet 2 cannot host two segments in a real SCAR window, but the
	// evaluator's diagnostic must still accumulate shared-link traffic.
	loads := c.LinkLoads(w)
	shared := loads[mcm.Link{From: 1, To: 2}]
	only0 := loads[mcm.Link{From: 0, To: 1}]
	if shared <= only0 {
		t.Errorf("shared link 1->2 (%d) not hotter than exclusive 0->1 (%d)", shared, only0)
	}
}
