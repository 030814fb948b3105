package eval

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// relTol is the allowed relative difference between the compiled path and
// the legacy reference: the two sum identical positive cost terms in
// different association orders (prefix-sum differences vs layer-by-layer
// accumulation), so they agree to float regrouping error, not bit-exactly.
const relTol = 1e-9

// contentionFactors derives the window's delta factors from its
// concurrent flows: every stage-to-stage hop is a NoP flow; every stage's
// weight load plus every model's boundary input/output is an off-chip
// stream.
func contentionFactors(c *Compiled, s *Scratch, w TimeWindow) (nop, off float64) {
	c.bucket(s, w.Segments)
	return c.Factors(c.flows(s))
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= relTol*scale
}

// randScenario builds a random multi-model workload: 2-3 models, mixed
// conv/GEMM/pool/eltwise layers, batches 1-8.
func randScenario(rng *rand.Rand) workload.Scenario {
	nModels := 2 + rng.Intn(2)
	var ms []workload.Model
	for mi := 0; mi < nModels; mi++ {
		nLayers := 2 + rng.Intn(7)
		var ls []workload.Layer
		ch := 16 << rng.Intn(3)
		sp := 16 + 2*rng.Intn(8)
		for li := 0; li < nLayers; li++ {
			name := string(rune('a'+mi)) + string(rune('0'+li))
			switch rng.Intn(4) {
			case 0:
				out := ch * (1 + rng.Intn(2))
				ls = append(ls, workload.Conv(name, ch, out, sp+2, sp+2, 3, 1))
				ch = out
			case 1:
				ls = append(ls, workload.GEMM(name, 32+rng.Intn(96), ch*8, 64<<rng.Intn(3)))
			case 2:
				ls = append(ls, workload.Pool(name, ch, sp+2, sp+2, 2, 2))
			default:
				ls = append(ls, workload.Eltwise(name, ch, sp, sp))
			}
		}
		ms = append(ms, workload.NewModel("m"+string(rune('a'+mi)), 1+rng.Intn(8), ls))
	}
	return workload.NewScenario("rand", ms...)
}

// randWindow builds a window over a random subset of the scenario's
// models: per model a contiguous layer range split into 1-3 segments on
// random chiplets (repeats allowed, exercising stage fusion and shared-
// chiplet serialization).
func randWindow(rng *rand.Rand, sc *workload.Scenario, chiplets int) TimeWindow {
	var segs []Segment
	for mi, model := range sc.Models {
		if rng.Intn(4) == 0 && mi > 0 {
			continue // model absent from the window
		}
		L := len(model.Layers)
		first := rng.Intn(L)
		last := first + rng.Intn(L-first)
		nSegs := 1 + rng.Intn(3)
		if nSegs > last-first+1 {
			nSegs = last - first + 1
		}
		cuts := rng.Perm(last - first + 1)[:nSegs-1]
		ends := append([]int(nil), cuts...)
		for i := range ends {
			ends[i] += first
		}
		ends = append(ends, last)
		insertionSortInts(ends)
		start := first
		for _, end := range ends {
			if end < start {
				continue
			}
			segs = append(segs, Segment{
				Model: mi, First: start, Last: end, Chiplet: rng.Intn(chiplets),
			})
			start = end + 1
		}
	}
	// Shuffle so bucketing has to regroup and re-sort.
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	return TimeWindow{Segments: segs}
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func equivalencePackages() []*mcm.MCM {
	return []*mcm.MCM{
		mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet()),
		mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet()),
		mcm.HetSides(3, 3, maestro.DefaultEdgeChiplet()),
	}
}

// TestCompiledMatchesReference: across randomized scenarios, packages and
// windows, the compiled session reproduces the legacy evaluator's window
// metrics (to float regrouping tolerance; layer counts and contention
// factors exactly).
func TestCompiledMatchesReference(t *testing.T) {
	packages := equivalencePackages()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := randScenario(rng)
		pkg := packages[int(seed)%len(packages)]
		db := costdb.New(maestro.DefaultParams())
		ref := newReference(db, pkg, &sc, DefaultOptions())
		c := Compile(db, pkg, &sc, DefaultOptions())
		s := c.NewScratch()

		for wi := 0; wi < 8; wi++ {
			w := randWindow(rng, &sc, pkg.NumChiplets())
			if len(w.Segments) == 0 {
				continue
			}
			want := ref.referenceWindow(w)
			got := c.Window(s, w)
			if got.NumLayers != want.NumLayers {
				t.Fatalf("seed %d window %d: NumLayers %d != %d", seed, wi, got.NumLayers, want.NumLayers)
			}
			if !relClose(got.LatencySec, want.LatencySec) || !relClose(got.EnergyJ, want.EnergyJ) {
				t.Fatalf("seed %d window %d: (lat %v, energy %v) != reference (%v, %v)",
					seed, wi, got.LatencySec, got.EnergyJ, want.LatencySec, want.EnergyJ)
			}
			if len(got.ModelLatency) != len(want.ModelLatency) {
				t.Fatalf("seed %d window %d: model set %v != %v", seed, wi, got.ModelLatency, want.ModelLatency)
			}
			for mi, lat := range want.ModelLatency {
				if !relClose(got.ModelLatency[mi], lat) {
					t.Fatalf("seed %d window %d model %d: latency %v != %v", seed, wi, mi, got.ModelLatency[mi], lat)
				}
			}

			// Contention factors derive from integer flow counts: exact.
			gNop, gOff := contentionFactors(c, s, w)
			wNop, wOff := ref.referenceContentionFactors(w)
			if gNop != wNop || gOff != wOff {
				t.Fatalf("seed %d window %d: contention (%v,%v) != (%v,%v)", seed, wi, gNop, gOff, wNop, wOff)
			}

			// Stage timings: same stages in the same order.
			gotT := c.WindowTimings(s, w)
			var wantT []StageTiming
			for _, mi := range w.Models() {
				timings, _, _ := ref.referenceModelTimings(w, mi, wNop, wOff)
				wantT = append(wantT, timings...)
			}
			if len(gotT) != len(wantT) {
				t.Fatalf("seed %d window %d: %d stages != %d", seed, wi, len(gotT), len(wantT))
			}
			for i := range wantT {
				g, wt := gotT[i], wantT[i]
				if g.Model != wt.Model || g.Chiplet != wt.Chiplet || g.Passes != wt.Passes ||
					!reflect.DeepEqual(g.Segments, wt.Segments) {
					t.Fatalf("seed %d window %d stage %d: %+v != %+v", seed, wi, i, g, wt)
				}
				for _, pair := range [][2]float64{
					{g.WeightSec, wt.WeightSec}, {g.FirstStart, wt.FirstStart},
					{g.FirstEnd, wt.FirstEnd}, {g.PassSec, wt.PassSec},
					{g.BusyEnd, wt.BusyEnd}, {g.EnergyPJ, wt.EnergyPJ},
				} {
					if !relClose(pair[0], pair[1]) {
						t.Fatalf("seed %d window %d stage %d: timing %v != %v (%+v vs %+v)",
							seed, wi, i, pair[0], pair[1], g, wt)
					}
				}
			}
		}
	}
}

// TestCompiledScheduleMatchesReference checks full-schedule metrics
// against the legacy path on the package's own test rig.
func TestCompiledScheduleMatchesReference(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		db, pkg, sc := testRig(batch)
		c := Compile(db, pkg, sc, DefaultOptions())
		sched := &Schedule{Windows: []TimeWindow{
			{Index: 0, Segments: []Segment{
				{Model: 0, First: 0, Last: 1, Chiplet: 0},
				{Model: 0, First: 2, Last: 3, Chiplet: 1},
				{Model: 1, First: 0, Last: 0, Chiplet: 4},
			}},
			{Index: 1, Segments: []Segment{
				{Model: 1, First: 1, Last: 2, Chiplet: 4},
			}},
		}}
		want := newReference(db, pkg, sc, DefaultOptions()).referenceEvaluateUnchecked(sched)
		got := c.EvaluateUnchecked(c.NewScratch(), sched)
		if !relClose(got.LatencySec, want.LatencySec) || !relClose(got.EnergyJ, want.EnergyJ) || !relClose(got.EDP, want.EDP) {
			t.Fatalf("batch %d: metrics (%v, %v, %v) != reference (%v, %v, %v)",
				batch, got.LatencySec, got.EnergyJ, got.EDP, want.LatencySec, want.EnergyJ, want.EDP)
		}
		for mi, lat := range want.ModelLatency {
			if !relClose(got.ModelLatency[mi], lat) {
				t.Fatalf("batch %d model %d: latency %v != %v", batch, mi, got.ModelLatency[mi], lat)
			}
		}
	}
}

// TestScratchReuseBitIdentical: the same session must produce
// bit-identical metrics through a reused Scratch and a fresh Scratch per
// call — any divergence means evaluation state is leaking between
// windows.
func TestScratchReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := randScenario(rng)
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	db := costdb.New(maestro.DefaultParams())
	c := Compile(db, pkg, &sc, DefaultOptions())

	var windows []TimeWindow
	for len(windows) < 20 {
		if w := randWindow(rng, &sc, pkg.NumChiplets()); len(w.Segments) > 0 {
			windows = append(windows, w)
		}
	}

	reused := c.NewScratch()
	for i, w := range windows {
		viaReused := c.Window(reused, w)
		viaFresh := c.Window(c.NewScratch(), w)
		if !reflect.DeepEqual(viaReused, viaFresh) {
			t.Fatalf("window %d: reused scratch diverged from fresh scratch:\n%+v\n%+v", i, viaReused, viaFresh)
		}
	}

	// Same property for the map-free hot path and repeated evaluation of
	// the same window through dirty scratch state.
	for i, w := range windows {
		first := c.WindowEval(reused, w)
		for j := 0; j < 3; j++ {
			c.WindowEval(reused, windows[(i+j+1)%len(windows)]) // dirty the scratch
			if again := c.WindowEval(reused, w); again != first {
				t.Fatalf("window %d: re-evaluation after dirtying scratch diverged: %+v != %+v", i, again, first)
			}
		}
	}
}

// TestCompiledConcurrentScratches hammers one session from many
// goroutines, each with a private Scratch (run under -race), checking
// every result — windows, a whole schedule, stage timings and link loads
// — against the serial baseline: the session must hold no hidden
// mutable state.
func TestCompiledConcurrentScratches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := randScenario(rng)
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	db := costdb.New(maestro.DefaultParams())
	c := Compile(db, pkg, &sc, DefaultOptions())

	var windows []TimeWindow
	for len(windows) < 8 {
		if w := randWindow(rng, &sc, pkg.NumChiplets()); len(w.Segments) > 0 {
			windows = append(windows, w)
		}
	}
	sched := &Schedule{Windows: windows}
	base := make([]WindowMetrics, len(windows))
	baseTimings := make([][]StageTiming, len(windows))
	baseLinks := make([]map[mcm.Link]int64, len(windows))
	s := c.NewScratch()
	for i, w := range windows {
		base[i] = c.Window(s, w)
		baseTimings[i] = c.WindowTimings(s, w)
		baseLinks[i] = c.LinkLoads(w)
	}
	baseSched := c.EvaluateUnchecked(s, sched)

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := c.NewScratch()
			for it := 0; it < iters; it++ {
				wi := (g + it) % len(windows)
				if got := c.Window(mine, windows[wi]); !reflect.DeepEqual(got, base[wi]) {
					errs <- "concurrent compiled Window diverged from serial baseline"
					return
				}
				if got := c.EvaluateUnchecked(mine, sched); !reflect.DeepEqual(got, baseSched) {
					errs <- "concurrent EvaluateUnchecked diverged from serial baseline"
					return
				}
				if got := c.WindowTimings(mine, windows[wi]); !reflect.DeepEqual(got, baseTimings[wi]) {
					errs <- "concurrent WindowTimings diverged from serial baseline"
					return
				}
				if got := c.LinkLoads(windows[wi]); !reflect.DeepEqual(got, baseLinks[wi]) {
					errs <- "concurrent LinkLoads diverged from serial baseline"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCompileClampsZeroBatch: a hand-built model may carry Batch 0
// (NewModel and Validate enforce >= 1, but neither is mandatory on this
// surface); Compile must clamp it rather than panic building the table.
func TestCompileClampsZeroBatch(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	m := workload.Model{Name: "raw", Batch: 0, Layers: []workload.Layer{workload.GEMM("g", 8, 16, 16)}}
	sc := workload.NewScenario("z", m)
	c := Compile(db, pkg, &sc, DefaultOptions())
	wm := c.Window(c.NewScratch(), TimeWindow{Segments: []Segment{{Model: 0, First: 0, Last: 0, Chiplet: 0}}})
	if wm.LatencySec <= 0 {
		t.Errorf("zero-batch model latency = %v, want > 0", wm.LatencySec)
	}
}

// TestScratchOwnerCheck: using a Scratch with a foreign session must
// panic rather than silently read mismatched tables.
func TestScratchOwnerCheck(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	_, pkg, sc := testRig(1)
	a := Compile(db, pkg, sc, DefaultOptions())
	b := Compile(db, pkg, sc, DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("foreign Scratch accepted without panic")
		}
	}()
	a.WindowEval(b.NewScratch(), TimeWindow{Segments: []Segment{{Model: 0, First: 0, Last: 0, Chiplet: 0}}})
}

// Expected is Equation (1): the chiplet-share-weighted mixture of a
// layer's class costs at the model's batch, summed in class order, next
// to the layer's output bytes at that batch and its weight bytes. On a
// homogeneous package it is the one class's cost; on Het-CB 3x3 (5
// NVDLA, 4 Shi) it lies strictly between the two.
func TestCompileExpectedIsMixture(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	spec := maestro.DefaultDatacenterChiplet()
	l := workload.GEMM("g", 128, 1280, 1280)
	sc := workload.NewScenario("s", workload.NewModel("m", 2, []workload.Layer{l}))
	nvd := db.Cost(l.WithBatch(2), dataflow.NVDLA(), spec)
	shi := db.Cost(l.WithBatch(2), dataflow.ShiDianNao(), spec)

	lat, e, out, weights := Compile(db, mcm.Simba(3, 3, dataflow.NVDLA(), spec), &sc, DefaultOptions()).Expected()
	if lat[0][0] != nvd.ComputeSeconds || e[0][0] != nvd.EnergyPJ {
		t.Errorf("homogeneous expectation (%v, %v) != pure NVDLA cost (%v, %v)", lat[0][0], e[0][0], nvd.ComputeSeconds, nvd.EnergyPJ)
	}
	if want := float64(l.WithBatch(2).OutputBytes()); out[0][0] != want {
		t.Errorf("output bytes %v, want %v", out[0][0], want)
	}
	if want := float64(l.WeightBytes()); weights[0][0] != want {
		t.Errorf("weight bytes %v, want %v", weights[0][0], want)
	}

	lat, e, _, _ = Compile(db, mcm.HetCB(3, 3, spec), &sc, DefaultOptions()).Expected()
	if want := 5.0/9*nvd.ComputeSeconds + 4.0/9*shi.ComputeSeconds; lat[0][0] != want {
		t.Errorf("Het-CB expected latency %v, want %v", lat[0][0], want)
	}
	if want := 5.0/9*nvd.EnergyPJ + 4.0/9*shi.EnergyPJ; e[0][0] != want {
		t.Errorf("Het-CB expected energy %v, want %v", e[0][0], want)
	}
	lo, hi := min(nvd.ComputeSeconds, shi.ComputeSeconds), max(nvd.ComputeSeconds, shi.ComputeSeconds)
	if lat[0][0] <= lo || lat[0][0] >= hi {
		t.Errorf("expectation %v outside (%v, %v)", lat[0][0], lo, hi)
	}
}

// A package that mixes chiplet specs under one dataflow has one class
// per (dataflow, spec) pair, and the expectation weighs each class by its
// own share and prices it with its own spec. Here three of the five
// NVDLA chiplets of Het-CB 3x3 get the edge spec: the NVDLA cost is no
// longer the first NVDLA chiplet's spec at a 5/9 share.
func TestCompileExpectedMixedSpecsUnderOneDataflow(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	dc, edge := maestro.DefaultDatacenterChiplet(), maestro.DefaultEdgeChiplet()
	pkg := mcm.HetCB(3, 3, dc)
	var nvdla []int
	for id, ch := range pkg.Chiplets {
		if ch.Dataflow.Name == dataflow.NVDLA().Name {
			nvdla = append(nvdla, id)
		}
	}
	if len(nvdla) != 5 || nvdla[0] != 0 {
		t.Fatalf("Het-CB 3x3 NVDLA chiplets %v, want five starting at 0", nvdla)
	}
	for _, id := range nvdla[2:] {
		pkg.Chiplets[id].Spec = edge
	}
	l := workload.Conv("c", 64, 64, 58, 58, 3, 1)
	sc := workload.NewScenario("s", workload.NewModel("m", 1, []workload.Layer{l}))
	nvdDC := db.Cost(l, dataflow.NVDLA(), dc)
	shi := db.Cost(l, dataflow.ShiDianNao(), dc)
	nvdEdge := db.Cost(l, dataflow.NVDLA(), edge)

	// Classes in first-appearance order: NVDLA/datacenter (chiplets 0
	// and 2), Shi/datacenter (4 chiplets), NVDLA/edge (3 chiplets).
	lat, e, _, _ := Compile(db, pkg, &sc, DefaultOptions()).Expected()
	wantLat := 2.0/9*nvdDC.ComputeSeconds + 4.0/9*shi.ComputeSeconds + 3.0/9*nvdEdge.ComputeSeconds
	wantE := 2.0/9*nvdDC.EnergyPJ + 4.0/9*shi.EnergyPJ + 3.0/9*nvdEdge.EnergyPJ
	if lat[0][0] != wantLat || e[0][0] != wantE {
		t.Errorf("expected (%v, %v), want (%v, %v)", lat[0][0], e[0][0], wantLat, wantE)
	}
	firstSpec := 5.0/9*nvdDC.ComputeSeconds + 4.0/9*shi.ComputeSeconds
	if lat[0][0] == firstSpec {
		t.Errorf("expected latency %v prices every NVDLA chiplet with the first one's spec", lat[0][0])
	}
}

// perLayerTables builds one model's tables one layer at a time, as
// Compile did before it grouped layers by shape: every byte count and
// fit from the layer itself, every cost through db.Cost. It is the
// oracle of TestCompileMatchesPerLayer.
func perLayerTables(db *costdb.DB, c *Compiled, model workload.Model) (cm compiledModel, expLat, expE, outBytes, weightBytes []float64) {
	L, batch := len(model.Layers), max(model.Batch, 1)
	cm = compiledModel{
		batch: batch, layers: L,
		perSampleIn: make([]int64, L), perSampleOut: make([]int64, L), weightPref: make([]int64, L+1),
		fit: make([][]int32, len(c.classes)), costs: make([][]costPrefix, len(c.classes)),
	}
	expLat, expE = make([]float64, L), make([]float64, L)
	outBytes, weightBytes = make([]float64, L), make([]float64, L)
	for li, l := range model.Layers {
		l1 := l.WithBatch(1)
		cm.perSampleIn[li], cm.perSampleOut[li] = l1.InputBytes(), l1.OutputBytes()
		cm.weightPref[li+1] = cm.weightPref[li] + l1.WeightBytes()
		outBytes[li] = float64(l.WithBatch(batch).OutputBytes())
		weightBytes[li] = float64(l1.WeightBytes())
	}
	for ci, class := range c.classes {
		count := 0
		for _, have := range c.classOf {
			if have == ci {
				count++
			}
		}
		capacity := float64(class.spec.L2Bytes) * 0.9
		cm.fit[ci] = make([]int32, L)
		need := map[int]bool{1: true, batch: true}
		for li, l := range model.Layers {
			l1 := l.WithBatch(1)
			act := float64(l1.InputBytes() + l1.OutputBytes())
			f := fitUnbounded
			if act > 0 {
				f = max(int32(max(capacity-float64(l1.WeightBytes()), capacity/2)/act), 1)
			}
			cm.fit[ci][li] = f
			if int(f) < batch {
				need[int(f)] = true
			}
		}
		cm.costs[ci] = make([]costPrefix, batch)
		share := float64(count) / float64(len(c.classOf))
		for bp := range need {
			cp := costPrefix{compute: make([]float64, L+1), energy: make([]float64, L+1), spill: make([]int64, L+1)}
			for li, l := range model.Layers {
				r := db.Cost(l.WithBatch(bp), class.rep, class.spec)
				cp.compute[li+1] = cp.compute[li] + r.ComputeSeconds
				cp.energy[li+1] = cp.energy[li] + r.EnergyPJ
				cp.spill[li+1] = cp.spill[li] + r.ExtraDRAMBytes
				if bp == batch {
					expLat[li] += share * r.ComputeSeconds
					expE[li] += share * r.EnergyPJ
				}
			}
			cm.costs[ci][bp-1] = cp
		}
	}
	return cm, expLat, expE, outBytes, weightBytes
}

// Compile works each cost, byte count and fit out once per distinct
// layer shape and reads it back per layer; its tables must be
// bit-identical to ones built layer by layer. The cases cover layers that
// share a shape under different names and batches, layers that differ in
// exactly one shape field (so a shape key missing that field merges
// them), zero dimensions, and a batch that needs several mini-batch
// columns.
func TestCompileMatchesPerLayer(t *testing.T) {
	base := workload.Conv("base", 16, 32, 20, 20, 3, 1)
	renamed := func(l workload.Layer, name string, n int) workload.Layer {
		l.Name, l.N = name, n
		return l
	}
	type tc struct {
		name    string
		batch   int
		layers  []workload.Layer
		columns int // the least number of mini-batch columns per class
	}
	cases := []tc{
		{name: "name-only duplicates", batch: 4, layers: []workload.Layer{
			base, workload.GEMM("g", 64, 256, 128), renamed(base, "again", 1), renamed(base, "batched", 8), workload.GEMM("g2", 64, 256, 128),
		}},
		{name: "zero dimensions", batch: 2, layers: []workload.Layer{
			{Name: "empty", Type: workload.OpEltwise},
			{Name: "conv-zeros", Type: workload.OpConv, K: 8, C: 8, Y: 6, X: 6},
			{Name: "conv-ones", Type: workload.OpConv, N: 1, K: 8, C: 8, Y: 6, X: 6, R: 1, S: 1, Stride: 1, BytesPerElem: 2},
			{Name: "gemm-zeros", Type: workload.OpGEMM, K: 16, C: 32, Y: 4},
			{Name: "empty-again", Type: workload.OpEltwise},
		}},
		{name: "several mini-batch columns", batch: 64, columns: 3, layers: []workload.Layer{
			workload.Conv("c1", 64, 64, 112, 112, 3, 1),
			workload.Conv("c2", 128, 128, 56, 56, 3, 1),
			workload.GEMM("fc", 512, 4096, 4096),
			workload.Conv("c1-again", 64, 64, 112, 112, 3, 1),
			workload.Eltwise("add", 256, 28, 28),
		}},
	}
	for _, d := range []struct {
		field string
		set   func(l *workload.Layer)
	}{
		{"Type", func(l *workload.Layer) { l.Type = workload.OpPool }},
		{"K", func(l *workload.Layer) { l.K = 48 }},
		{"C", func(l *workload.Layer) { l.C = 24 }},
		{"Y", func(l *workload.Layer) { l.Y = 24 }},
		{"X", func(l *workload.Layer) { l.X = 24 }},
		{"R", func(l *workload.Layer) { l.R = 5 }},
		{"S", func(l *workload.Layer) { l.S = 5 }},
		{"Stride", func(l *workload.Layer) { l.Stride = 2 }},
		{"BytesPerElem", func(l *workload.Layer) { l.BytesPerElem = 4 }},
	} {
		other := renamed(base, "other", 1)
		d.set(&other)
		cases = append(cases, tc{name: "differs in " + d.field, batch: 3, layers: []workload.Layer{base, other, renamed(base, "base-again", 1)}})
	}
	dc := maestro.DefaultDatacenterChiplet()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := costdb.New(maestro.DefaultParams())
			sc := workload.NewScenario("s", workload.NewModel("m", c.batch, c.layers))
			for _, pkg := range []*mcm.MCM{mcm.HetCB(3, 3, dc), mcm.HetSides(3, 3, maestro.DefaultEdgeChiplet())} {
				comp := Compile(db, pkg, &sc, DefaultOptions())
				want, wantLat, wantE, wantOut, wantWeight := perLayerTables(db, comp, sc.Models[0])
				if !reflect.DeepEqual(comp.models[0], want) {
					t.Errorf("%s: compiled model tables differ from the per-layer ones:\n got %+v\nwant %+v", pkg.Name, comp.models[0], want)
				}
				lat, e, out, weight := comp.Expected()
				for name, pair := range map[string][2][]float64{
					"expected latency": {lat[0], wantLat}, "expected energy": {e[0], wantE},
					"output bytes": {out[0], wantOut}, "weight bytes": {weight[0], wantWeight},
				} {
					if !reflect.DeepEqual(pair[0], pair[1]) {
						t.Errorf("%s: %s %v, want %v", pkg.Name, name, pair[0], pair[1])
					}
				}
				for ci, cols := range comp.models[0].costs {
					built := 0
					for _, col := range cols {
						if col.compute != nil {
							built++
						}
					}
					if built < c.columns {
						t.Errorf("%s class %d: %d mini-batch columns, want at least %d", pkg.Name, ci, built, c.columns)
					}
				}
			}
		})
	}
}
