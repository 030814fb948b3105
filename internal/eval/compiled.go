package eval

import (
	"fmt"
	"slices"

	"example.com/scar/internal/comm"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// This file is the compiled evaluation session, the package's only
// evaluation arithmetic: zero-allocation and lock-free. SCAR's offline
// MAESTRO database (Section IV-A) is finite and enumerable up front — a
// layer's cost depends only on (shape, dataflow class, mini-batch) — so
// instead of consulting a guarded hash map per layer per evaluation,
// Compile enumerates the whole table once per (scenario, MCM) pair into
// dense arrays and derives prefix sums over the layer index. Any segment's
// aggregate compute-seconds, energy, weight bytes and spill bytes then
// cost O(1) prefix differences instead of O(layers) map lookups, and a
// per-worker Scratch supplies every buffer an evaluation needs, so the
// parallel search never allocates or takes a lock inside Window.

// dfClass is one distinct (dataflow, chiplet spec) combination on the
// package. The paper's templates use one spec per dataflow, but Compile
// keys on the full pair so custom heterogeneous-spec packages stay
// correct. rep is a representative chiplet's full dataflow (excluded from
// class identity; the cost database keys dataflows by name).
type dfClass struct {
	df   string
	spec maestro.Chiplet
	rep  dataflow.Dataflow
}

// costPrefix carries the prefix sums of one (model, class, mini-batch)
// cost column: index i holds the sum over layers [0, i).
type costPrefix struct {
	compute []float64 // seconds
	energy  []float64 // pJ
	spill   []int64   // capacity-induced DRAM refetch bytes
}

// compiledModel is one scenario model's dense tables.
type compiledModel struct {
	batch  int
	layers int
	// perSampleIn/perSampleOut are the layer's activation footprints at
	// batch 1; footprints are exactly linear in the batch dimension, so
	// bp * perSample reproduces Layer.WithBatch(bp).InputBytes() et al.
	// without touching the layer structs.
	perSampleIn  []int64
	perSampleOut []int64
	// weightPref is the weight-byte prefix sum (batch-independent).
	weightPref []int64
	// fit[class][layer] is the largest mini-batch whose activations stay
	// L2-resident next to the layer's weights on that class (the
	// residentBatch term), fitUnbounded for weight-free zero-activation
	// layers that impose no cap.
	fit [][]int32
	// costs[class][bp-1] are the cost prefix columns.
	costs [][]costPrefix
}

// fitUnbounded marks layers that impose no mini-batch cap.
const fitUnbounded = int32(1<<31 - 1)

// Compiled is an evaluation session for one (scenario, MCM) pair: every
// cost the performance model of Section III-E can ask for, precomputed
// into dense tables. A Compiled is immutable after Compile and safe for
// unbounded concurrent use; each concurrent evaluation needs its own
// Scratch.
type Compiled struct {
	m    *mcm.MCM
	sc   *workload.Scenario
	opts Options

	classes   []dfClass
	classOf   []int   // chiplet ID -> class index
	memIFHops []int   // chiplet ID -> hops to nearest memory interface
	hops      [][]int // all-pairs chiplet hop counts
	models    []compiledModel

	// Per model and layer, at the model's batch: expected latency and
	// energy (see Expected), output bytes and weight bytes.
	expLat, expE          [][]float64
	outBytes, weightBytes [][]float64
}

// Compile builds the evaluation session. Table entries are filled through
// the cost database, so identical layer shapes across models, scenarios
// and sessions are analyzed exactly once (the database's singleflight
// also dedups concurrent compiles); within a model, each distinct shape
// is looked up once per class and mini-batch. Compile forces the MCM's
// lazy network tables, so the session is safe to share across goroutines
// immediately.
func Compile(db *costdb.DB, m *mcm.MCM, sc *workload.Scenario, opts Options) *Compiled {
	c := &Compiled{m: m, sc: sc, opts: opts}

	// Classify chiplets and snapshot the network tables.
	n := m.NumChiplets()
	c.classOf = make([]int, n)
	c.memIFHops = make([]int, n)
	c.hops = make([][]int, n)
	var count []int // chiplets per class
	for id, ch := range m.Chiplets {
		idx := -1
		for i, have := range c.classes {
			if have.df == ch.Dataflow.Name && have.spec == ch.Spec {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(c.classes)
			c.classes = append(c.classes, dfClass{df: ch.Dataflow.Name, spec: ch.Spec, rep: ch.Dataflow})
			count = append(count, 0)
		}
		c.classOf[id] = idx
		count[idx]++
	}
	for src := 0; src < n; src++ {
		c.memIFHops[src] = m.NearestMemIFHops(src)
		c.hops[src] = make([]int, n)
		for dst := 0; dst < n; dst++ {
			c.hops[src][dst] = m.Hops(src, dst)
		}
	}

	// Dense per-model tables.
	c.models = make([]compiledModel, len(sc.Models))
	c.expLat = make([][]float64, len(sc.Models))
	c.expE = make([][]float64, len(sc.Models))
	c.outBytes = make([][]float64, len(sc.Models))
	c.weightBytes = make([][]float64, len(sc.Models))
	var col []maestro.Result
	for mi, model := range sc.Models {
		L := len(model.Layers)
		// Hand-built models may carry Batch 0 (NewModel and Validate
		// both enforce >= 1, but neither is mandatory on this surface);
		// clamp instead of indexing an empty table.
		batch := model.Batch
		if batch < 1 {
			batch = 1
		}
		cm := compiledModel{
			batch:        batch,
			layers:       L,
			perSampleIn:  make([]int64, L),
			perSampleOut: make([]int64, L),
			weightPref:   make([]int64, L+1),
			fit:          make([][]int32, len(c.classes)),
			costs:        make([][]costPrefix, len(c.classes)),
		}
		// Costs, byte counts and fits are per shape: each is worked out
		// once per distinct shape and read back per layer.
		shapes, shapeOf := distinctShapes(model.Layers)
		in, out, weight := make([]int64, len(shapes)), make([]int64, len(shapes)), make([]int64, len(shapes))
		for si, l := range shapes {
			l1 := l.WithBatch(1)
			in[si], out[si], weight[si] = l1.InputBytes(), l1.OutputBytes(), l1.WeightBytes()
		}
		expLat, expE := make([]float64, L), make([]float64, L)
		outBytes, weightBytes := make([]float64, L), make([]float64, L)
		for li, si := range shapeOf {
			cm.perSampleIn[li] = in[si]
			cm.perSampleOut[li] = out[si]
			cm.weightPref[li+1] = cm.weightPref[li] + weight[si]
			outBytes[li] = float64(int64(batch) * out[si])
			weightBytes[li] = float64(weight[si])
		}
		c.expLat[mi], c.expE[mi] = expLat, expE
		c.outBytes[mi], c.weightBytes[mi] = outBytes, weightBytes
		col = slices.Grow(col[:0], len(shapes))[:len(shapes)]
		shapeFit := make([]int32, len(shapes))
		for ci, class := range c.classes {
			// Mini-batch caps (the residentBatch rule): weights larger
			// than L2 stream regardless, reserving half the capacity.
			capacity := float64(class.spec.L2Bytes) * 0.9
			for si := range shapes {
				act := float64(in[si] + out[si])
				if act <= 0 {
					shapeFit[si] = fitUnbounded
					continue
				}
				avail := capacity - float64(weight[si])
				if avail < capacity/2 {
					avail = capacity / 2
				}
				shapeFit[si] = max(int32(avail/act), 1)
			}
			cm.fit[ci] = make([]int32, L)
			for li, si := range shapeOf {
				cm.fit[ci][li] = shapeFit[si]
			}

			// Cost prefix columns, but only for reachable mini-batches:
			// miniBatch yields 1 (multi-stage), the model batch (all
			// fits at least it) or a range-minimum of the fit table, so
			// every other column would be dead weight — for a batch-32
			// model that skips most of the batch x layers x classes
			// cost-model calls a full enumeration would make. Only the
			// chiplet class's dataflow is consulted — one chiplet never
			// runs another class's dataflow.
			need := make([]bool, batch+1)
			need[1] = true
			need[batch] = true
			for _, f := range shapeFit {
				if int(f) < batch {
					need[f] = true
				}
			}
			cm.costs[ci] = make([]costPrefix, batch)
			share := float64(count[ci]) / float64(n)
			for bp := 1; bp <= batch; bp++ {
				if !need[bp] {
					// Unreachable: left empty so an indexing bug fails
					// loudly instead of reading zeros.
					continue
				}
				cp := costPrefix{
					compute: make([]float64, L+1),
					energy:  make([]float64, L+1),
					spill:   make([]int64, L+1),
				}
				db.Column(shapes, bp, class.rep, class.spec, col)
				for li, si := range shapeOf {
					r := &col[si]
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
		c.models[mi] = cm
	}
	return c
}

// shapeKey is everything of a layer that its cost and its byte counts
// read, bar the batch: the cost database's layer key without N. Layers
// that differ only in name or batch share a key.
type shapeKey struct {
	op                                 workload.OpType
	k, c, y, x, r, s, stride, elemSize int
}

// distinctShapes returns one representative layer per distinct shape, in
// order of first appearance, and each layer's index into that list.
func distinctShapes(layers []workload.Layer) (shapes []workload.Layer, shapeOf []int32) {
	index := make(map[shapeKey]int32)
	shapeOf = make([]int32, len(layers))
	for li, l := range layers {
		k := shapeKey{l.Type, l.K, l.C, l.Y, l.X, l.R, l.S, l.Stride, l.BytesPerElem}
		si, ok := index[k]
		if !ok {
			si = int32(len(shapes))
			index[k] = si
			shapes = append(shapes, l)
		}
		shapeOf[li] = si
	}
	return shapes, shapeOf
}

// New is Compile under its original constructor name, kept as a plain
// forward for callers written against it.
func New(db *costdb.DB, m *mcm.MCM, sc *workload.Scenario, opts Options) *Compiled {
	return Compile(db, m, sc, opts)
}

// Expected returns, per model and layer at the model's batch, the
// inputs of the search's cost estimates: Equation (1) of the paper and
// its energy analogue, the expectation of the layer's cost over the
// package's chiplet classes,
//
//	E(Lat(l)) = sum_i  n_i / |C| * Lat(l -> class_i)
//
// in seconds and pJ, and the layer's output and weight bytes. A class
// is a distinct (dataflow, chiplet spec) pair, n_i its chiplet count,
// and the terms are summed in class order. The expectation is what the
// MCM-Reconfig, PROV and SEG engines use before chiplets are assigned.
// The slices belong to the session and must not be modified.
func (c *Compiled) Expected() (latSec, energyPJ, outBytes, weightBytes [][]float64) {
	return c.expLat, c.expE, c.outBytes, c.weightBytes
}

// MCM returns the session's package model.
func (c *Compiled) MCM() *mcm.MCM { return c.m }

// Scenario returns the session's workload.
func (c *Compiled) Scenario() *workload.Scenario { return c.sc }

// Scratch is the reusable per-worker state of compiled evaluations. One
// Scratch serves one goroutine; evaluations through the same Scratch are
// strictly sequential, and its contents never influence results — any
// Scratch of the session produces bit-identical metrics. Allocate one per
// pool worker with NewScratch.
type Scratch struct {
	owner *Compiled

	// Segment bucketing: segs holds the window's segments grouped by
	// model and sorted by first layer; segOff[mi]..segOff[mi+1] is model
	// mi's bucket.
	segs   []Segment
	segOff []int
	cursor []int

	// Per-chiplet busy accumulation with a touched list for O(touched)
	// reset.
	busy        []float64
	busyTouched []int

	// modelLat[mi] is the last evaluation's pipeline latency for models
	// present in the window (segOff identifies presence).
	modelLat []float64
}

// NewScratch allocates evaluation scratch state sized for the session.
func (c *Compiled) NewScratch() *Scratch {
	nm := len(c.models)
	return &Scratch{
		owner:       c,
		segOff:      make([]int, nm+1),
		cursor:      make([]int, nm),
		busy:        make([]float64, c.m.NumChiplets()),
		busyTouched: make([]int, 0, c.m.NumChiplets()),
		modelLat:    make([]float64, nm),
	}
}

// WindowEval is the map-free result of one compiled window evaluation;
// per-model latencies stay in the Scratch (see Scratch.ModelLatencies).
type WindowEval struct {
	// LatencySec is Lat(tw): the max across per-model pipeline latencies
	// and per-chiplet serialization.
	LatencySec float64
	// EnergyJ is the window's total energy in joules.
	EnergyJ float64
	// NumLayers is the layer count executed in the window.
	NumLayers int
}

// bucket groups the window's segments by model (sorted by first layer)
// into the scratch and returns the window's layer count.
//
//scar:hotpath
func (c *Compiled) bucket(s *Scratch, segs []Segment) int {
	if s.owner != c {
		panic(fmt.Sprintf("eval: Scratch for session %p used with session %p", s.owner, c)) //scar:hotalloc invariant-violation panic: the process is already dead, allocation cost is irrelevant
	}
	nm := len(c.models)
	for mi := 0; mi <= nm; mi++ {
		s.segOff[mi] = 0
	}
	layers := 0
	for _, seg := range segs {
		s.segOff[seg.Model+1]++
		layers += seg.NumLayers()
	}
	for mi := 0; mi < nm; mi++ {
		s.segOff[mi+1] += s.segOff[mi]
		s.cursor[mi] = s.segOff[mi]
	}
	if cap(s.segs) < len(segs) {
		s.segs = make([]Segment, len(segs)) //scar:hotalloc scratch growth: amortized to zero once the scratch has seen the largest window
	}
	s.segs = s.segs[:len(segs)]
	for _, seg := range segs {
		s.segs[s.cursor[seg.Model]] = seg
		s.cursor[seg.Model]++
	}
	// Insertion-sort each bucket by first layer (buckets are tiny; the
	// sort is stable, matching TimeWindow.ModelSegments).
	for mi := 0; mi < nm; mi++ {
		bucket := s.segs[s.segOff[mi]:s.segOff[mi+1]]
		for i := 1; i < len(bucket); i++ {
			for j := i; j > 0 && bucket[j].First < bucket[j-1].First; j-- {
				bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
			}
		}
	}
	return layers
}

// flows counts the bucketed window's concurrent flows: every
// stage-to-stage hop is a NoP flow; every stage's weight load plus every
// model's boundary input/output is an off-chip stream.
//
//scar:hotpath
func (c *Compiled) flows(s *Scratch) (crossFlows, offFlows int) {
	for mi := range c.models {
		segs := s.segs[s.segOff[mi]:s.segOff[mi+1]]
		if len(segs) == 0 {
			continue
		}
		stages := 1
		for i := 1; i < len(segs); i++ {
			if segs[i].Chiplet != segs[i-1].Chiplet {
				stages++
			}
		}
		crossFlows += stages - 1
		offFlows += 2 + stages // boundary input + output, one weight load per stage
	}
	return crossFlows, offFlows
}

// Factors converts a window's concurrent flow counts to its delta
// contention factors (Section III-E): crossFlows NoP flows between
// pipeline stages, offFlows off-chip streams.
//
//scar:hotpath
func (c *Compiled) Factors(crossFlows, offFlows int) (nop, off float64) {
	if crossFlows > 1 {
		nop = c.opts.NoPContentionAlpha * float64(crossFlows-1)
	}
	if offFlows > 1 {
		off = c.opts.OffchipContentionAlpha * float64(offFlows-1)
	}
	return nop, off
}

// miniBatch computes b' (Section III-E) for model mi over its segments:
// multi-stage pipelines stream per-sample; a single stage (every segment
// on one chiplet) runs the largest mini-batch whose activations stay
// L2-resident (precomputed per layer and class).
//
//scar:hotpath
func (c *Compiled) miniBatch(mi int, segs []Segment) int {
	cm := &c.models[mi]
	chiplet := segs[0].Chiplet
	for _, seg := range segs[1:] {
		if seg.Chiplet != chiplet {
			return 1
		}
	}
	fit := cm.fit[c.classOf[chiplet]]
	bp := int32(cm.batch)
	for _, seg := range segs {
		for _, f := range fit[seg.First : seg.Last+1] {
			if f < bp {
				bp = f
			}
		}
	}
	if bp < 1 {
		bp = 1
	}
	return int(bp)
}

// ModelPass is one model's pipeline pass inside a window.
type ModelPass struct {
	// LatencySec is the model's pipeline latency, Lat(SG_m).
	LatencySec float64
	// BusiestSec is the largest busy time (weight load plus every pass)
	// of any one of the model's stages.
	BusiestSec float64
	// EnergyPJ is the model's compute and communication energy.
	EnergyPJ float64
}

// stageCost is one pipeline stage's cost terms, every one of which
// depends only on the stage's own segments, chiplet and mini-batch and
// on the window's off-chip contention. Only the NoP input of an inner
// stage also depends on the chiplet upstream, so fold computes it.
type stageCost struct {
	chiplet int
	passes  int
	// inBytes is the stage's input per pass; dramIn is its transfer
	// from DRAM on a model's first stage, zero on the others.
	inBytes int64
	dramIn  comm.Cost
	compute comm.Cost // the stage's layers, as O(1) prefix differences
	spill   comm.Cost // capacity-induced DRAM refetch
	out     comm.Cost // the last stage's output to DRAM, zero on the others
	wload   comm.Cost // one-time weight load from DRAM
}

// fillStage sets st to the cost terms of one stage of model mi: stage
// is a run of the model's segments, sorted by first layer, on one
// chiplet; bp is the model's mini-batch; first and last mark the model's
// first and last stage; offC is the window's off-chip contention factor.
//
//scar:hotpath
func (c *Compiled) fillStage(st *stageCost, mi int, stage []Segment, bp int, first, last bool, offC float64) {
	cm := &c.models[mi]
	chiplet := stage[0].Chiplet
	cp := &cm.costs[c.classOf[chiplet]][bp-1]
	var computeSec, computePJ float64
	var spillBytes, weightBytes int64
	for _, seg := range stage {
		computeSec += cp.compute[seg.Last+1] - cp.compute[seg.First]
		computePJ += cp.energy[seg.Last+1] - cp.energy[seg.First]
		spillBytes += cp.spill[seg.Last+1] - cp.spill[seg.First]
		weightBytes += cm.weightPref[seg.Last+1] - cm.weightPref[seg.First]
	}
	hops := c.memIFHops[chiplet]
	st.chiplet = chiplet
	st.passes = (cm.batch + bp - 1) / bp
	st.inBytes = int64(bp) * cm.perSampleIn[stage[0].First]
	st.dramIn = comm.Cost{}
	if first {
		st.dramIn = comm.OffchipHops(c.m, hops, st.inBytes, offC)
	}
	st.compute = comm.Cost{Seconds: computeSec, EnergyPJ: computePJ}
	st.spill = comm.OffchipHops(c.m, hops, spillBytes, offC)
	st.out = comm.Cost{}
	if last {
		st.out = comm.OffchipHops(c.m, hops, int64(bp)*cm.perSampleOut[stage[len(stage)-1].Last], offC)
	}
	st.wload = comm.OffchipHops(c.m, hops, weightBytes, offC)
}

// passFold folds one model's stages, in pipeline order, into its pass.
type passFold struct {
	prev               int // the previous stage's chiplet, -1 before the first
	passes             int
	prevOut, steadyMax float64
	pass               ModelPass
}

// foldedStage is one folded stage's first pass, energy and busy time.
type foldedStage struct {
	start, passLat, energyPJ, busy float64
}

// fold adds one stage to the pass: the first pass fills the pipeline,
// starting once the upstream stage's first pass is out and the stage's
// own weights are loaded; the bottleneck pass sets the steady state.
// An inner stage's input arrives over the NoP from the previous stage's
// chiplet under the window's NoP contention nopC. This and fillStage
// are the only copy of the per-model cost arithmetic: WindowEval folds
// stages as it computes them, StageTable folds cached ones.
//
//scar:hotpath
func (c *Compiled) fold(f *passFold, st *stageCost, nopC float64) foldedStage {
	in := st.dramIn
	if f.prev >= 0 {
		in = comm.ChipToChipHops(c.m, c.hops[f.prev][st.chiplet], st.inBytes, nopC)
	}
	passLat := in.Seconds + st.compute.Seconds + st.spill.Seconds + st.out.Seconds
	start := f.prevOut
	if st.wload.Seconds > start {
		start = st.wload.Seconds
	}
	passPJ := in.EnergyPJ + st.compute.EnergyPJ + st.spill.EnergyPJ + st.out.EnergyPJ
	energy := st.wload.EnergyPJ + float64(st.passes)*passPJ
	f.pass.EnergyPJ += energy
	busy := st.wload.Seconds + float64(st.passes)*passLat
	if busy > f.pass.BusiestSec {
		f.pass.BusiestSec = busy
	}
	f.prev = st.chiplet
	f.passes = st.passes
	f.prevOut = start + passLat
	if passLat > f.steadyMax {
		f.steadyMax = passLat
	}
	return foldedStage{start: start, passLat: passLat, energyPJ: energy, busy: busy}
}

// finish returns the folded pass: the fill plus the other passes at the
// bottleneck's pace.
//
//scar:hotpath
func (f *passFold) finish() ModelPass {
	f.pass.LatencySec = f.prevOut + float64(f.passes-1)*f.steadyMax
	return f.pass
}

// modelPass evaluates one model's pipeline inside a window (the
// modelTimings computation on dense tables). segs are the model's
// segments sorted by first layer; the walk fuses each maximal run of
// consecutive same-chiplet segments into one pipeline stage. nopC/offC
// are the window's contention factors. Every stage's busy time is added
// to its chiplet's busy total in s (models of a general window may share
// chiplets). When timings is non-nil, stage timings are appended to it
// (the cold path behind WindowTimings); the hot path passes nil and
// allocates nothing.
//
//scar:hotpath
func (c *Compiled) modelPass(s *Scratch, mi int, segs []Segment, nopC, offC float64, timings *[]StageTiming) ModelPass {
	bp := c.miniBatch(mi, segs)
	timingsAt := 0
	if timings != nil {
		timingsAt = len(*timings)
	}
	f := passFold{prev: -1}
	for first := 0; first < len(segs); {
		chiplet := segs[first].Chiplet
		end := first + 1
		for end < len(segs) && segs[end].Chiplet == chiplet {
			end++
		}
		var st stageCost
		c.fillStage(&st, mi, segs[first:end], bp, first == 0, end == len(segs), offC)
		fs := c.fold(&f, &st, nopC)
		if s.busy[chiplet] == 0 {
			s.busyTouched = append(s.busyTouched, chiplet) //scar:hotalloc never grows: NewScratch caps busyTouched at NumChiplets and at most one entry per chiplet is appended
		}
		s.busy[chiplet] += fs.busy
		if timings != nil {
			*timings = append(*timings, StageTiming{ //scar:hotalloc cold trace branch: the hot path passes timings == nil and never enters this block
				Model:      mi,
				Chiplet:    chiplet,
				Segments:   append([]Segment(nil), segs[first:end]...), //scar:hotalloc cold trace branch: only reached when the caller asked for materialized stage timings
				WeightSec:  st.wload.Seconds,
				FirstStart: fs.start,
				FirstEnd:   fs.start + fs.passLat,
				PassSec:    fs.passLat,
				Passes:     st.passes,
				EnergyPJ:   fs.energyPJ,
			})
		}
		first = end
	}
	p := f.finish()
	if timings != nil {
		// Steady-state drain: every stage completes its last pass by the
		// model's pipeline end, staggered by the bottleneck pass.
		for i := timingsAt; i < len(*timings); i++ {
			(*timings)[i].BusyEnd = (*timings)[i].FirstEnd + float64(f.passes-1)*f.steadyMax
		}
	}
	return p
}

// StageTable scores the leaves of one tree search from cached stage
// costs. In a tree search every segment sits on its own chiplet and the
// window's contention factors are fixed, so every segment is its own
// stage, a model with two or more segments runs at mini-batch 1, and a
// one-segment model's mini-batch depends only on its chiplet's class.
// A stage's cost terms then depend only on its (segment slot, chiplet)
// pair, except an inner stage's NoP input, which depends on the chiplet
// before it. The table computes each pair's terms the first time the
// search asks for them, and Reset makes every entry stale by advancing a
// generation stamp, so it costs nothing per entry. One StageTable serves
// one goroutine.
type StageTable struct {
	c          *Compiled
	entries    []stageEntry // slot*chiplets + chiplet
	gen        uint64
	nopC, offC float64
}

type stageEntry struct {
	gen uint64
	stageCost
}

// NewStageTable returns an empty stage table of the session.
func (c *Compiled) NewStageTable() *StageTable { return &StageTable{c: c} }

// Reset starts a search of slots segment slots whose windows carry
// crossFlows NoP flows and offFlows off-chip streams.
func (t *StageTable) Reset(slots, crossFlows, offFlows int) {
	t.gen++
	if n := slots * len(t.c.classOf); n > len(t.entries) {
		// Every entry is stale after the stamp advances, so nothing is
		// copied over.
		t.entries = make([]stageEntry, max(n, 2*len(t.entries)))
	}
	t.nopC, t.offC = t.c.Factors(crossFlows, offFlows)
}

// Pass returns the pass of one model whose segments, sorted by first
// layer and each on its own chiplet, fill the search's slots from slot
// on. Each slot holds the same segment, up to its chiplet, throughout a
// search. The pass is bit-identical to the model's pass inside
// WindowEval of any window of the search, where the window's latency is
// the maximum of its models' LatencySec and BusiestSec and its energy
// the sum of their EnergyPJ × 1e-12 in ascending model order.
//
//scar:hotpath
func (t *StageTable) Pass(slot int, segs []Segment) ModelPass {
	c := t.c
	chiplets := len(c.classOf)
	f := passFold{prev: -1}
	for q := range segs {
		e := &t.entries[(slot+q)*chiplets+segs[q].Chiplet]
		if e.gen != t.gen {
			bp := 1
			if len(segs) == 1 {
				bp = c.miniBatch(segs[0].Model, segs)
			}
			c.fillStage(&e.stageCost, segs[q].Model, segs[q:q+1], bp, q == 0, q == len(segs)-1, t.offC)
			e.gen = t.gen
		}
		c.fold(&f, &e.stageCost, t.nopC)
	}
	return f.finish()
}

// windowInto evaluates a window's segments, leaving per-model latencies
// in the scratch; timings optionally collects stage timings.
//
//scar:hotpath
func (c *Compiled) windowInto(s *Scratch, segs []Segment, timings *[]StageTiming) WindowEval {
	we := WindowEval{NumLayers: c.bucket(s, segs)}
	nopC, offC := c.Factors(c.flows(s))

	for _, ci := range s.busyTouched {
		s.busy[ci] = 0
	}
	s.busyTouched = s.busyTouched[:0]

	for mi := range c.models {
		if s.segOff[mi] == s.segOff[mi+1] {
			continue
		}
		p := c.modelPass(s, mi, s.segs[s.segOff[mi]:s.segOff[mi+1]], nopC, offC, timings)
		s.modelLat[mi] = p.LatencySec
		we.EnergyJ += p.EnergyPJ * 1e-12
		if p.LatencySec > we.LatencySec {
			we.LatencySec = p.LatencySec
		}
	}
	for _, ci := range s.busyTouched {
		if s.busy[ci] > we.LatencySec {
			we.LatencySec = s.busy[ci]
		}
	}
	return we
}

// WindowEval evaluates one time window on the session: per-model
// inter-chiplet pipeline latency with mini-batches (Section III-E,
// Lat(SG_m)), window latency as the maximum across models and per-chiplet
// busy time, and energy as the sum of all compute and communication
// energies. It is the zero-allocation hot path: all state lives in the
// scratch, whose per-model latencies remain readable until its next use.
//
//scar:hotpath
func (c *Compiled) WindowEval(s *Scratch, w TimeWindow) WindowEval {
	return c.windowInto(s, w.Segments, nil)
}

// ModelLatencies invokes fn for every model present in the scratch's last
// evaluation, in ascending model order, with the model's pipeline latency
// in that window.
func (s *Scratch) ModelLatencies(fn func(model int, latencySec float64)) {
	for mi := 0; mi < len(s.segOff)-1; mi++ {
		if s.segOff[mi] != s.segOff[mi+1] {
			fn(mi, s.modelLat[mi])
		}
	}
}

// Window evaluates one window and materializes the classic WindowMetrics
// (allocating its per-model latency map — callers on the hot path use
// WindowEval plus Scratch.ModelLatencies instead).
func (c *Compiled) Window(s *Scratch, w TimeWindow) WindowMetrics {
	we := c.WindowEval(s, w)
	wm := WindowMetrics{
		LatencySec:   we.LatencySec,
		EnergyJ:      we.EnergyJ,
		NumLayers:    we.NumLayers,
		ModelLatency: make(map[int]float64),
	}
	s.ModelLatencies(func(mi int, lat float64) { wm.ModelLatency[mi] = lat })
	return wm
}

// EvaluateUnchecked scores a schedule without validity checking.
func (c *Compiled) EvaluateUnchecked(s *Scratch, sched *Schedule) Metrics {
	m := Metrics{ModelLatency: map[int]float64{}}
	var elapsed float64
	for _, w := range sched.Windows {
		wm := c.Window(s, w)
		m.Windows = append(m.Windows, wm)
		for mi, lat := range wm.ModelLatency {
			m.ModelLatency[mi] = elapsed + lat
		}
		elapsed += wm.LatencySec
		m.LatencySec += wm.LatencySec
		m.EnergyJ += wm.EnergyJ
	}
	m.EDP = m.LatencySec * m.EnergyJ
	return m
}

// Evaluate validates the schedule and returns its metrics.
func (c *Compiled) Evaluate(s *Scratch, sched *Schedule) (Metrics, error) {
	if err := sched.Validate(c.sc, c.m); err != nil {
		return Metrics{}, err
	}
	return c.EvaluateUnchecked(s, sched), nil
}

// WindowTimings returns the evaluated stage timings of every model in the
// window (the data behind schedule traces and Gantt rendering), in model
// then pipeline order.
func (c *Compiled) WindowTimings(s *Scratch, w TimeWindow) []StageTiming {
	var timings []StageTiming
	c.windowInto(s, w.Segments, &timings)
	return timings
}
