package eval

import (
	"math"

	"example.com/scar/internal/comm"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// This file preserves the pre-compilation evaluator — per-layer cost
// lookups through the guarded costdb hash map, fresh maps and slices per
// call — as an executable oracle. The equivalence tests check the
// compiled session against it, and BenchmarkWindowEvalLegacy measures the
// hot-path speedup over it. It is deliberately test-only: production code
// has exactly one evaluation arithmetic, the compiled one.
//
// Numerical note: the compiled path aggregates a segment's cost as a
// prefix-sum difference where this code sums layer by layer. Both are
// sums of the same positive terms, associated differently, so results
// agree to floating-point regrouping error (~1 ulp per term) rather than
// bit-exactly; the equivalence tests bound the relative difference.

// reference is the legacy evaluator's state: the raw cost database and
// the pair it scores, with no compiled tables.
type reference struct {
	db   *costdb.DB
	m    *mcm.MCM
	sc   *workload.Scenario
	opts Options
}

func newReference(db *costdb.DB, m *mcm.MCM, sc *workload.Scenario, opts Options) *reference {
	return &reference{db: db, m: m, sc: sc, opts: opts}
}

// stage is a maximal run of consecutive same-chiplet segments of one
// model inside a window: the unit of inter-chiplet pipelining. Segments
// that share a chiplet cannot overlap in time, so they fuse into one
// pipeline stage.
type stage struct {
	chiplet  int
	segments []Segment
}

func groupStages(segs []Segment) []stage {
	var out []stage
	for _, s := range segs {
		if n := len(out); n > 0 && out[n-1].chiplet == s.Chiplet {
			out[n-1].segments = append(out[n-1].segments, s)
			continue
		}
		out = append(out, stage{chiplet: s.Chiplet, segments: []Segment{s}})
	}
	return out
}

func countLayers(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.NumLayers()
	}
	return n
}

// referenceWindow is the legacy Evaluator.Window.
func (e *reference) referenceWindow(w TimeWindow) WindowMetrics {
	wm := WindowMetrics{ModelLatency: map[int]float64{}}
	nopC, offC := e.referenceContentionFactors(w)

	chipletBusy := map[int]float64{}
	for _, mi := range w.Models() {
		timings, modelLat, energyPJ := e.referenceModelTimings(w, mi, nopC, offC)
		for _, st := range timings {
			chipletBusy[st.Chiplet] += st.WeightSec + float64(st.Passes)*st.PassSec
		}
		wm.ModelLatency[mi] = modelLat
		wm.EnergyJ += energyPJ * 1e-12
		wm.NumLayers += countLayers(w.ModelSegments(mi))
	}

	for _, lat := range wm.ModelLatency {
		wm.LatencySec = math.Max(wm.LatencySec, lat)
	}
	for _, busy := range chipletBusy {
		wm.LatencySec = math.Max(wm.LatencySec, busy)
	}
	return wm
}

// referenceEvaluateUnchecked is the legacy Evaluator.EvaluateUnchecked.
func (e *reference) referenceEvaluateUnchecked(s *Schedule) Metrics {
	m := Metrics{ModelLatency: map[int]float64{}}
	var elapsed float64
	for _, w := range s.Windows {
		wm := e.referenceWindow(w)
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

// referenceModelTimings is the legacy modelTimings.
func (e *reference) referenceModelTimings(w TimeWindow, mi int, nopC, offC float64) ([]StageTiming, float64, float64) {
	segs := w.ModelSegments(mi)
	stages := groupStages(segs)
	model := e.sc.Models[mi]
	batch := model.Batch
	bp := 1
	if len(stages) == 1 {
		bp = e.referenceResidentBatch(model, segs, stages[0].chiplet)
	}
	passes := (batch + bp - 1) / bp

	timings := make([]StageTiming, 0, len(stages))
	var prevOut, steadyMax float64
	var energyPJ float64
	for si, st := range stages {
		c := e.m.Chiplets[st.chiplet]

		var weightBytes int64
		var computeSec, computePJ float64
		var spillBytes int64
		for _, seg := range st.segments {
			for li := seg.First; li <= seg.Last; li++ {
				layer := model.Layers[li].WithBatch(bp)
				r := e.db.Cost(layer, c.Dataflow, c.Spec)
				computeSec += r.ComputeSeconds
				computePJ += r.EnergyPJ
				spillBytes += r.ExtraDRAMBytes
				weightBytes += layer.WeightBytes()
			}
		}
		wload := comm.OffchipRead(e.m, st.chiplet, weightBytes, offC)

		firstLayer := model.Layers[st.segments[0].First].WithBatch(bp)
		var in comm.Cost
		if si == 0 {
			in = comm.OffchipRead(e.m, st.chiplet, firstLayer.InputBytes(), offC)
		} else {
			in = comm.ChipToChip(e.m, stages[si-1].chiplet, st.chiplet, firstLayer.InputBytes(), nopC)
		}

		var out comm.Cost
		if si == len(stages)-1 {
			lastSeg := st.segments[len(st.segments)-1]
			lastLayer := model.Layers[lastSeg.Last].WithBatch(bp)
			out = comm.OffchipWrite(e.m, st.chiplet, lastLayer.OutputBytes(), offC)
		}

		spill := comm.OffchipRead(e.m, st.chiplet, spillBytes, offC)
		passLat := in.Seconds + computeSec + spill.Seconds + out.Seconds
		start := prevOut
		if wload.Seconds > start {
			start = wload.Seconds
		}
		passPJ := in.EnergyPJ + computePJ + spill.EnergyPJ + out.EnergyPJ
		stageE := wload.EnergyPJ + float64(passes)*passPJ
		energyPJ += stageE
		timings = append(timings, StageTiming{
			Model:      mi,
			Chiplet:    st.chiplet,
			Segments:   st.segments,
			WeightSec:  wload.Seconds,
			FirstStart: start,
			FirstEnd:   start + passLat,
			PassSec:    passLat,
			Passes:     passes,
			EnergyPJ:   stageE,
		})
		prevOut = start + passLat
		if passLat > steadyMax {
			steadyMax = passLat
		}
	}
	modelLat := prevOut + float64(passes-1)*steadyMax
	for i := range timings {
		timings[i].BusyEnd = timings[i].FirstEnd + float64(passes-1)*steadyMax
	}
	return timings, modelLat, energyPJ
}

// referenceResidentBatch is the legacy residentBatch.
func (e *reference) referenceResidentBatch(model workload.Model, segs []Segment, chiplet int) int {
	capacity := float64(e.m.Chiplets[chiplet].Spec.L2Bytes) * 0.9
	bp := model.Batch
	for _, seg := range segs {
		for li := seg.First; li <= seg.Last; li++ {
			l := model.Layers[li].WithBatch(1)
			act := float64(l.InputBytes() + l.OutputBytes())
			if act <= 0 {
				continue
			}
			avail := capacity - float64(l.WeightBytes())
			if avail < capacity/2 {
				avail = capacity / 2
			}
			fit := int(avail / act)
			if fit < 1 {
				fit = 1
			}
			if fit < bp {
				bp = fit
			}
		}
	}
	if bp < 1 {
		bp = 1
	}
	return bp
}

// referenceContentionFactors is the legacy ContentionFactors.
func (e *reference) referenceContentionFactors(w TimeWindow) (nop, off float64) {
	crossFlows, offFlows := 0, 0
	for _, mi := range w.Models() {
		stages := groupStages(w.ModelSegments(mi))
		offFlows += 2
		for si := range stages {
			offFlows++
			if si > 0 && stages[si].chiplet != stages[si-1].chiplet {
				crossFlows++
			}
		}
	}
	if crossFlows > 1 {
		nop = e.opts.NoPContentionAlpha * float64(crossFlows-1)
	}
	if offFlows > 1 {
		off = e.opts.OffchipContentionAlpha * float64(offFlows-1)
	}
	return nop, off
}

// referenceLinkLoads is the legacy LinkLoads, over grouped stages.
func (e *reference) referenceLinkLoads(w TimeWindow) map[mcm.Link]int64 {
	loads := map[mcm.Link]int64{}
	for _, mi := range w.Models() {
		model := e.sc.Models[mi]
		stages := groupStages(w.ModelSegments(mi))
		batch := model.Batch
		bp := 1
		if len(stages) == 1 {
			continue // no inter-chiplet traffic
		}
		for si := 1; si < len(stages); si++ {
			first := stages[si].segments[0].First
			bytes := model.Layers[first].WithBatch(bp).InputBytes() * int64(batch)
			for _, link := range e.m.RouteLinks(stages[si-1].chiplet, stages[si].chiplet) {
				loads[link] += bytes
			}
		}
	}
	return loads
}
