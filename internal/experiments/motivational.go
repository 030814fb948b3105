package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"example.com/scar/internal/baselines"
	"example.com/scar/internal/core"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// MotivationalResult holds the Figure 2 study on the 2x2 heterogeneous
// MCM (3 NVDLA-like + 1 ShiDianNao-like chiplets, 4096 PEs, 10 MB L2):
// single-model cases A1-A3 for the ResNet-50 block and multi-model cases
// B1-B3 adding the GPT-L feed-forward layer.
type MotivationalResult struct {
	// EDPs by case label.
	EDP map[string]float64
	// Ratios relative to the case's baseline (A1 for single-model,
	// B1 for multi-model), matching the figure's annotations.
	Ratio map[string]float64
}

// Motivational runs the Figure 2 study.
func (s *Suite) Motivational(ctx context.Context) (*MotivationalResult, error) {
	spec := maestro.DefaultDatacenterChiplet()
	pkg := mcm.Motivational2x2(spec)
	full := models.MotivationalWorkload()
	resnetOnly := workload.NewScenario("resnet-slice", full.Models[0])

	res := &MotivationalResult{EDP: map[string]float64{}, Ratio: map[string]float64{}}
	comp := eval.Compile(s.DB, pkg, &resnetOnly, s.Opts.Eval)
	scratch := comp.NewScratch()

	// A1: ResNet block on the ShiDianNao chiplet (NN-baton w/ Shi).
	// A2: ResNet block on an NVDLA chiplet (NN-baton w/ NVD).
	// Chiplet 3 is the ShiDianNao die; chiplet 0 an NVDLA die.
	for _, c := range []struct {
		label   string
		chiplet int
	}{{"A1", 3}, {"A2", 0}} {
		sched := &eval.Schedule{Windows: []eval.TimeWindow{{Segments: []eval.Segment{
			{Model: 0, First: 0, Last: 2, Chiplet: c.chiplet},
		}}}}
		m, err := comp.Evaluate(scratch, sched)
		if err != nil {
			return nil, err
		}
		res.EDP[c.label] = m.EDP
	}

	// A3: SCAR's heterogeneous schedule for the single model.
	sched := core.New(s.DB, s.Opts)
	a3, err := fullResult(sched.Schedule(ctx, core.NewRequest(&resnetOnly, pkg, core.EDPObjective())))
	if err != nil {
		return nil, err
	}
	res.EDP["A3"] = a3.Metrics.EDP

	// B1: NN-baton runs both models sequentially on chiplet 1.
	_, b1, err := baselines.NNBaton(s.DB, &full, pkg, s.Opts.Eval)
	if err != nil {
		return nil, err
	}
	res.EDP["B1"] = b1.EDP

	// B2: SCAR restricted to one window (pure spatial distribution).
	spatialOpts := s.Opts
	spatialOpts.NSplits = 0
	b2, err := fullResult(core.New(s.DB, spatialOpts).Schedule(ctx, core.NewRequest(&full, pkg, core.EDPObjective())))
	if err != nil {
		return nil, err
	}
	res.EDP["B2"] = b2.Metrics.EDP

	// B3: full SCAR spatio-temporal search.
	b3, err := fullResult(core.New(s.DB, s.Opts).Schedule(ctx, core.NewRequest(&full, pkg, core.EDPObjective())))
	if err != nil {
		return nil, err
	}
	res.EDP["B3"] = b3.Metrics.EDP

	for _, label := range []string{"A1", "A2", "A3"} {
		res.Ratio[label] = res.EDP[label] / res.EDP["A1"]
	}
	for _, label := range []string{"B1", "B2", "B3"} {
		res.Ratio[label] = res.EDP[label] / res.EDP["B1"]
	}
	return res, nil
}

// Print renders the case table with the paper's reference ratios.
func (r *MotivationalResult) Print(w io.Writer) {
	paper := map[string]string{
		"A1": "1.00", "A2": "0.78", "A3": "0.52",
		"B1": "1.00", "B2": "0.30", "B3": "0.28",
	}
	desc := map[string]string{
		"A1": "single model, ShiDianNao chiplet",
		"A2": "single model, NVDLA chiplet",
		"A3": "single model, SCAR heterogeneous",
		"B1": "multi-model, NN-baton sequential",
		"B2": "multi-model, SCAR spatial (1 window)",
		"B3": "multi-model, SCAR spatio-temporal",
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintf(tw, "Figure 2: motivational study on the 2x2 heterogeneous MCM\n")
	fprintf(tw, "Case\tDescription\tEDP(J.s)\tRatio\tPaper\n")
	for _, label := range []string{"A1", "A2", "A3", "B1", "B2", "B3"} {
		fprintf(tw, "%s\t%s\t%.4g\t%s\t%s\n",
			label, desc[label], r.EDP[label],
			fmt.Sprintf("%.2f", r.Ratio[label]), paper[label])
	}
	tw.Flush()
}
