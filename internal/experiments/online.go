package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"example.com/scar/internal/core"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/online"
)

// This file is the online-serving experiment (not a paper artifact): an
// arrival-rate sweep of the discrete-event request simulator over two
// XRBench scenario classes sharing one edge package. It produces the
// SLA-attainment and latency-percentile curves that characterize the
// package as a serving system — where saturation sets in, how the p99
// diverges from the p50 past it, and what schedule switching between
// scenario classes costs. Its JSON output is the checked-in
// BENCH_online.json snapshot (regenerate with
// `go run ./cmd/scarbench -exp online -benchjson BENCH_online.json`);
// everything is seeded, so the snapshot is bit-identical across runs.

// OnlineClassInfo describes one scheduled request class of the sweep.
type OnlineClassInfo struct {
	// Scenario is the Table III scenario number; Share its fraction of
	// the offered load.
	Scenario int     `json:"scenario"`
	Share    float64 `json:"share"`
	// ServiceSec is the scheduled scenario latency (the simulator's
	// service time); SwitchInSec the reconfiguration cost charged when
	// the package switches to this class.
	ServiceSec  float64 `json:"service_sec"`
	SwitchInSec float64 `json:"switch_in_sec"`
	// EnergyJ is the schedule energy per request.
	EnergyJ float64 `json:"energy_j"`
}

// OnlinePoint is one arrival-rate operating point.
type OnlinePoint struct {
	// OfferedLoad is the dimensionless utilization target rho (total
	// arrival rate divided by the package's service capacity);
	// RatePerSec the resulting total Poisson arrival rate.
	OfferedLoad float64 `json:"offered_load"`
	RatePerSec  float64 `json:"rate_per_sec"`
	// Requests is the simulated request count at this point.
	Requests int `json:"requests"`
	// Serving metrics (see online.Report).
	SLAAttainment    float64 `json:"sla_attainment"`
	P50LatencySec    float64 `json:"p50_latency_sec"`
	P95LatencySec    float64 `json:"p95_latency_sec"`
	P99LatencySec    float64 `json:"p99_latency_sec"`
	MeanQueueDepth   float64 `json:"mean_queue_depth"`
	MaxQueueDepth    int     `json:"max_queue_depth"`
	Utilization      float64 `json:"utilization"`
	ScheduleSwitches int     `json:"schedule_switches"`
	EnergyPerReqJ    float64 `json:"energy_per_req_j"`
}

// OnlineResult is the arrival-rate sweep snapshot.
type OnlineResult struct {
	// Strategy is the package organization; Classes the scheduled
	// scenario mix sharing it.
	Strategy string            `json:"strategy"`
	Classes  []OnlineClassInfo `json:"classes"`
	// CapacityPerSec is the mix-weighted service capacity mu the sweep
	// normalizes against; Seed the sweep's base RNG seed.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	Seed           int64   `json:"seed"`
	// Points are the operating points in ascending offered load.
	Points []OnlinePoint `json:"points"`
}

// onlineSweepLoads are the offered-load operating points: comfortable,
// moderate, near-saturation, saturated and overloaded.
var onlineSweepLoads = []float64{0.2, 0.5, 0.8, 0.95, 1.1}

// Online runs the arrival-rate sweep: scenarios 6 and 7 (70/30) on the
// Het-Sides 4x4 edge package under the latency objective, Poisson
// arrivals at each offered load, about targetRequests requests per
// point. The 4x4 package (not the paper's 3x3) is the smallest Het-Sides
// organization whose latency-optimal schedules fit inside the XRBench
// one-second frame budget under our cost-model calibration; serving
// optimizes for deadlines, hence the latency search.
func (s *Suite) Online(ctx context.Context) (*OnlineResult, error) {
	return s.onlineSweep(ctx, 1500)
}

// onlineSweep is Online with a configurable per-point request budget
// (tests use a smaller one).
func (s *Suite) onlineSweep(ctx context.Context, targetRequests int) (*OnlineResult, error) {
	mix, err := s.scheduleOnlineMix(ctx)
	if err != nil {
		return nil, err
	}
	res := &OnlineResult{
		Strategy:       mix.strategy,
		Classes:        mix.infos,
		CapacityPerSec: mix.capacityPerSec,
		Seed:           s.Opts.Seed,
	}
	res.Points, err = s.sweepPoints(ctx, mix, 1, online.FIFO{}, targetRequests)
	return res, err
}

// onlineMix is the scheduled sc6+sc7 class mix both the online and the
// policies sweeps run over: schedules are built once, every operating
// point (and every policy) reuses them, exactly like the serving cache
// would.
type onlineMix struct {
	strategy       string
	shares         []float64
	classes        []online.Class
	infos          []OnlineClassInfo
	capacityPerSec float64
}

// scheduleOnlineMix schedules scenarios 6 and 7 (70/30) on the
// Het-Sides 4x4 edge package under the latency objective.
func (s *Suite) scheduleOnlineMix(ctx context.Context) (*onlineMix, error) {
	type classSpec struct {
		scenario int
		share    float64
	}
	specs := []classSpec{{6, 0.7}, {7, 0.3}}
	pkgSpec := maestro.DefaultEdgeChiplet()
	obj := core.LatencyObjective()

	mix := &onlineMix{strategy: "Het-Sides 4x4"}
	mix.classes = make([]online.Class, len(specs))
	for i, spec := range specs {
		sc, err := models.ScenarioByNumber(spec.scenario)
		if err != nil {
			return nil, err
		}
		pkg := mcm.HetSides(4, 4, pkgSpec)
		comp := eval.Compile(s.DB, pkg, &sc, s.Opts.Eval)
		req := core.NewRequest(&sc, pkg, obj)
		req.Compiled = comp
		r, err := fullResult(core.New(s.DB, s.Opts).Schedule(ctx, req))
		if err != nil {
			return nil, fmt.Errorf("experiments: online: scenario %d: %w", spec.scenario, err)
		}
		cl, err := online.NewClass(fmt.Sprintf("sc%d", spec.scenario), comp, r.Schedule, nil, 3)
		if err != nil {
			return nil, err
		}
		mix.classes[i] = cl
		mix.shares = append(mix.shares, spec.share)
		mix.infos = append(mix.infos, OnlineClassInfo{
			Scenario:    spec.scenario,
			Share:       spec.share,
			ServiceSec:  cl.Metrics.LatencySec,
			SwitchInSec: cl.SwitchInSec,
			EnergyJ:     cl.Metrics.EnergyJ,
		})
	}

	// Mix-weighted mean service time -> single-package capacity.
	var meanSvc float64
	for i, share := range mix.shares {
		meanSvc += share * mix.classes[i].Metrics.LatencySec
	}
	mix.capacityPerSec = 1 / meanSvc
	return mix, nil
}

// loadRun is one simulated offered-load point of a sweep: the load, the
// total Poisson rate and horizon it became, and the report.
type loadRun struct {
	load, rate, horizon float64
	rep                 *online.Report
}

// runLoads simulates the scheduled mix at each offered load for one
// (packages, policy, admission) configuration, about targetRequests
// arrivals per load. The Poisson seeds depend only on (suite seed, load
// index, class), so at a given replica count every policy and every
// admission guard faces the identical arrival streams and the curves
// are directly comparable. (Across replica counts the streams differ:
// the offered rate scales with the fleet so rho stays the per-package
// load.)
func (s *Suite) runLoads(ctx context.Context, mix *onlineMix, loads []float64, packages int, policy online.Policy, adm *online.Admission, targetRequests int) ([]loadRun, error) {
	runs := make([]loadRun, len(loads))
	for pi, load := range loads {
		// Offered load is normalized to the fleet: rho = rate / (P * mu).
		totalRate := load * float64(packages) * mix.capacityPerSec
		// Horizon that yields about targetRequests arrivals in
		// expectation at this rate.
		horizon := float64(targetRequests) / totalRate
		cfgClasses := make([]online.Class, len(mix.classes))
		for i, share := range mix.shares {
			cfgClasses[i] = mix.classes[i]
			cfgClasses[i].Arrivals = online.Poisson{
				RatePerSec: share * totalRate,
				// Independent deterministic stream per (point, class).
				Seed: s.Opts.Seed + int64(pi)*100 + int64(i),
			}
		}
		rep, err := online.Simulate(ctx, online.Config{
			Classes:    cfgClasses,
			Packages:   packages,
			Policy:     policy,
			HorizonSec: horizon,
			Admission:  adm,
		})
		if err != nil {
			return nil, fmt.Errorf("load %.2f: %w", load, err)
		}
		runs[pi] = loadRun{load: load, rate: totalRate, horizon: horizon, rep: rep}
	}
	return runs, nil
}

// sweepPoints runs the arrival-rate sweep over the scheduled mix for
// one (packages, policy) configuration, without admission control.
func (s *Suite) sweepPoints(ctx context.Context, mix *onlineMix, packages int, policy online.Policy, targetRequests int) ([]OnlinePoint, error) {
	runs, err := s.runLoads(ctx, mix, onlineSweepLoads, packages, policy, nil, targetRequests)
	if err != nil {
		return nil, fmt.Errorf("experiments: online: %w", err)
	}
	points := make([]OnlinePoint, len(runs))
	for i, r := range runs {
		rep := r.rep
		points[i] = OnlinePoint{
			OfferedLoad:      r.load,
			RatePerSec:       r.rate,
			Requests:         rep.Requests,
			SLAAttainment:    rep.SLAAttainment,
			P50LatencySec:    rep.P50LatencySec,
			P95LatencySec:    rep.P95LatencySec,
			P99LatencySec:    rep.P99LatencySec,
			MeanQueueDepth:   rep.MeanQueueDepth,
			MaxQueueDepth:    rep.MaxQueueDepth,
			Utilization:      rep.Utilization,
			ScheduleSwitches: rep.ScheduleSwitches,
		}
		if rep.Requests > 0 {
			points[i].EnergyPerReqJ = rep.EnergyJ / float64(rep.Requests)
		}
	}
	return points, nil
}

// printMixHeader writes a serving sweep's first line: its title and
// the scheduled class mix.
func printMixHeader(w io.Writer, title string, classes []OnlineClassInfo) {
	fprintf(w, "%s, ", title)
	for i, c := range classes {
		if i > 0 {
			fprintf(w, " + ")
		}
		fprintf(w, "sc%d (%.0f%%, %.1f ms/req, switch-in %.2f ms)",
			c.Scenario, 100*c.Share, 1e3*c.ServiceSec, 1e3*c.SwitchInSec)
	}
	fprintf(w, "\n")
}

// printOnlinePoints renders arrival-rate points as a table.
func printOnlinePoints(w io.Writer, points []OnlinePoint) {
	fprintf(w, "%8s %9s %8s %8s %9s %9s %9s %8s %7s %8s\n",
		"load", "req/s", "reqs", "SLA", "p50 ms", "p95 ms", "p99 ms", "queue", "util", "switches")
	for _, p := range points {
		fprintf(w, "%8.2f %9.2f %8d %7.1f%% %9.2f %9.2f %9.2f %8.2f %6.0f%% %8d\n",
			p.OfferedLoad, p.RatePerSec, p.Requests, 100*p.SLAAttainment,
			1e3*p.P50LatencySec, 1e3*p.P95LatencySec, 1e3*p.P99LatencySec,
			p.MeanQueueDepth, 100*p.Utilization, p.ScheduleSwitches)
	}
}

// Print renders the sweep as a table.
func (r *OnlineResult) Print(w io.Writer) {
	printMixHeader(w, "Online serving sweep: "+r.Strategy+" edge package", r.Classes)
	fprintf(w, "capacity %.1f req/s, seed %d\n", r.CapacityPerSec, r.Seed)
	printOnlinePoints(w, r.Points)
}

// WriteJSON writes the snapshot as indented JSON (the BENCH_online.json
// format).
func (r *OnlineResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
