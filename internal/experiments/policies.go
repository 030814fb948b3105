package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"example.com/scar/internal/online"
)

// This file is the dispatch-policy experiment (not a paper artifact):
// the same sc6+sc7 arrival-rate sweep as -exp online, run once per
// dispatch policy over identical Poisson arrival streams, so the only
// difference between the curves is which waiting request a freed
// package serves next. It quantifies what request ordering is worth on
// a reconfigurable MCM: SwitchAware amortizes the schedule-switch
// weight reload by batching same-class runs, which shows up as fewer
// switches and a lower p99 (and better SLA attainment) than FIFO once
// arrival rates push the package toward saturation. Its JSON output is
// the checked-in BENCH_policies.json snapshot (regenerate with
// `go run ./cmd/scarbench -exp policies -benchjson BENCH_policies.json`);
// everything is seeded, so the snapshot is bit-identical across runs.

// PolicySweep is one policy's arrival-rate curve.
type PolicySweep struct {
	// Policy is the dispatch policy's wire name.
	Policy string `json:"policy"`
	// Points are the operating points, same loads and arrival streams
	// as every other policy in the result.
	Points []OnlinePoint `json:"points"`
}

// PoliciesResult is the policy-comparison snapshot.
type PoliciesResult struct {
	// Strategy is the package organization; Packages the replica count;
	// Classes the scheduled scenario mix sharing the fleet.
	Strategy string            `json:"strategy"`
	Packages int               `json:"packages"`
	Classes  []OnlineClassInfo `json:"classes"`
	// CapacityPerSec is the mix-weighted per-package service capacity
	// the sweep normalizes against; Seed the sweep's base RNG seed.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	Seed           int64   `json:"seed"`
	// Policies are the per-policy curves, in PolicyNames order.
	Policies []PolicySweep `json:"policies"`
}

// Policies runs the dispatch-policy comparison: FIFO vs EDF vs
// SwitchAware on the sc6+sc7 70/30 mix (Het-Sides 4x4 edge package,
// latency objective), one arrival-rate sweep per policy over identical
// arrival streams.
func (s *Suite) Policies(ctx context.Context) (*PoliciesResult, error) {
	return s.policiesSweep(ctx, 1500)
}

// policiesSweep is Policies with a configurable per-point request
// budget (tests use a smaller one).
func (s *Suite) policiesSweep(ctx context.Context, targetRequests int) (*PoliciesResult, error) {
	mix, err := s.scheduleOnlineMix(ctx)
	if err != nil {
		return nil, err
	}
	res := &PoliciesResult{
		Strategy:       mix.strategy,
		Packages:       1,
		Classes:        mix.infos,
		CapacityPerSec: mix.capacityPerSec,
		Seed:           s.Opts.Seed,
	}
	for _, name := range online.PolicyNames() {
		pol, err := online.PolicyByName(name)
		if err != nil {
			return nil, err
		}
		points, err := s.sweepPoints(ctx, mix, res.Packages, pol, targetRequests)
		if err != nil {
			return nil, fmt.Errorf("experiments: policies: %s: %w", name, err)
		}
		res.Policies = append(res.Policies, PolicySweep{Policy: name, Points: points})
	}
	return res, nil
}

// Sweep returns the named policy's curve, nil when absent.
func (r *PoliciesResult) Sweep(policy string) *PolicySweep {
	for i := range r.Policies {
		if r.Policies[i].Policy == policy {
			return &r.Policies[i]
		}
	}
	return nil
}

// Print renders the comparison as one table per policy.
func (r *PoliciesResult) Print(w io.Writer) {
	printMixHeader(w, fmt.Sprintf("Dispatch-policy sweep: %s, %d package(s)", r.Strategy, r.Packages), r.Classes)
	fprintf(w, "capacity %.1f req/s per package, seed %d\n", r.CapacityPerSec, r.Seed)
	for _, ps := range r.Policies {
		fprintf(w, "\npolicy %s\n", ps.Policy)
		printOnlinePoints(w, ps.Points)
	}
}

// WriteJSON writes the snapshot as indented JSON (the
// BENCH_policies.json format).
func (r *PoliciesResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
