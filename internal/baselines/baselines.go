// Package baselines implements the comparison schedulers of the SCAR
// paper's evaluation (Section V-A):
//
//   - Standalone: each model runs end-to-end on a single chiplet; all
//     chiplets adopt the same dataflow (the "Standalone (Shi)" /
//     "Standalone (NVD)" rows).
//   - NN-baton-style: the single-model scheduler of Tan et al. (ISCA
//     2021) as characterized in Section II-C: models execute one after
//     another starting from a fixed chiplet, with a unified dataflow,
//     partitioning across chiplets only when a single chiplet's resources
//     are insufficient. It is agnostic to heterogeneous composition.
//
// The "Simba-like pipelining" baseline needs no code here: it is the SCAR
// scheduler run on a homogeneous package.
package baselines

import (
	"fmt"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// Standalone schedules each model of the scenario onto its own chiplet:
// one window, one whole-model segment per model, on distinct chiplets.
// Chiplets are taken in ID order (memory-interface columns first on the
// paper's side-interface packages is unnecessary — ID order already
// starts on the left interface column).
func Standalone(db *costdb.DB, sc *workload.Scenario, m *mcm.MCM, opts eval.Options) (*eval.Schedule, eval.Metrics, error) {
	return StandaloneOn(eval.Compile(db, m, sc, opts))
}

// StandaloneOn is Standalone on an existing compiled session, so callers
// that hold one (scar.Session) do not compile a second one.
func StandaloneOn(c *eval.Compiled) (*eval.Schedule, eval.Metrics, error) {
	sc, m := c.Scenario(), c.MCM()
	if len(sc.Models) > m.NumChiplets() {
		return nil, eval.Metrics{}, fmt.Errorf("baselines: %d models exceed %d chiplets", len(sc.Models), m.NumChiplets())
	}
	var segs []eval.Segment
	for mi, model := range sc.Models {
		segs = append(segs, eval.Segment{
			Model:   mi,
			First:   0,
			Last:    len(model.Layers) - 1,
			Chiplet: mi,
		})
	}
	sched := &eval.Schedule{Windows: []eval.TimeWindow{{Index: 0, Segments: segs}}}
	return evaluate(c, sched)
}

// evaluate scores a baseline schedule on the compiled session.
func evaluate(c *eval.Compiled, sched *eval.Schedule) (*eval.Schedule, eval.Metrics, error) {
	metrics, err := c.Evaluate(c.NewScratch(), sched)
	if err != nil {
		return nil, eval.Metrics{}, err
	}
	return sched, metrics, nil
}

// NNBaton schedules the scenario the way the paper characterizes
// NN-baton: each model runs to completion before the next starts (one
// window per model), on its starting chiplet, spilling onto BFS-adjacent
// chiplets only when the model's weights exceed one chiplet's L2
// capacity.
func NNBaton(db *costdb.DB, sc *workload.Scenario, m *mcm.MCM, opts eval.Options) (*eval.Schedule, eval.Metrics, error) {
	return NNBatonOn(eval.Compile(db, m, sc, opts))
}

// NNBatonOn is NNBaton on an existing compiled session, so callers that
// hold one (scar.Session) do not compile a second one.
func NNBatonOn(c *eval.Compiled) (*eval.Schedule, eval.Metrics, error) {
	const start = 0 // the fixed starting chiplet
	sc, m := c.Scenario(), c.MCM()
	sched := &eval.Schedule{}
	for mi, model := range sc.Models {
		segs := nnBatonModel(mi, model, m, start)
		sched.Windows = append(sched.Windows, eval.TimeWindow{Index: mi, Segments: segs})
	}
	return evaluate(c, sched)
}

// nnBatonModel packs a model's layers greedily into segments whose weight
// footprints fit one chiplet's L2, assigning segments to chiplets in BFS
// order from the starting chiplet. Once every chiplet is occupied the
// last segment absorbs the remaining layers (weights stream from DRAM —
// NN-baton partitions only "when not enough resources exist", and a
// model larger than the whole package must still run).
func nnBatonModel(mi int, model workload.Model, m *mcm.MCM, start int) []eval.Segment {
	order := bfsOrder(m, start)
	capacity := m.Chiplets[start].Spec.L2Bytes
	var segs []eval.Segment
	segStart := 0
	var used int64
	for li, l := range model.Layers {
		w := l.WeightBytes()
		if used+w > capacity && li > segStart && len(segs) < len(order)-1 {
			segs = append(segs, eval.Segment{
				Model: mi, First: segStart, Last: li - 1, Chiplet: order[len(segs)],
			})
			segStart = li
			used = 0
		}
		used += w
	}
	segs = append(segs, eval.Segment{
		Model: mi, First: segStart, Last: len(model.Layers) - 1, Chiplet: order[len(segs)],
	})
	return segs
}

func bfsOrder(m *mcm.MCM, start int) []int {
	visited := map[int]bool{start: true}
	order := []int{start}
	for i := 0; i < len(order); i++ {
		for _, nb := range m.Neighbors(order[i]) {
			if !visited[nb] {
				visited[nb] = true
				order = append(order, nb)
			}
		}
	}
	return order
}
