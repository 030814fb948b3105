package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"example.com/scar/internal/online"
)

// This file is the overload experiment (not a paper artifact): the
// sc6+sc7 mix of -exp online driven past saturation (1x-3x the
// package's capacity) under three admission guards over identical
// Poisson arrival streams. "unprotected" is the bare simulator — every
// arrival queues, so past 1x the queue grows without bound and almost
// no served request meets its deadline. "drop-tail" bounds the queue
// with watermark backpressure, which caps latency but still admits
// requests that are already doomed. "deadline-aware" sheds exactly the
// arrivals whose queue-implied start would bust their XRBench frame
// deadline; the headline is that its accepted-request SLA stays >= 90%
// at 2x overload while the unprotected curve collapses. Its JSON
// output is the checked-in BENCH_overload.json snapshot (regenerate
// with `go run ./cmd/scarbench -exp overload -benchjson
// BENCH_overload.json`); everything is seeded, so the snapshot is
// bit-identical across runs.

// OverloadGuardInfo names one admission configuration of the sweep.
type OverloadGuardInfo struct {
	// Name labels the guard: "unprotected", "drop-tail" or
	// "deadline-aware".
	Name string `json:"name"`
	// MaxQueueDepth / watermarks / shedder mirror online.Admission
	// (zero values when the guard is unprotected).
	MaxQueueDepth int    `json:"max_queue_depth,omitempty"`
	HighWatermark int    `json:"high_watermark,omitempty"`
	LowWatermark  int    `json:"low_watermark,omitempty"`
	Shedder       string `json:"shedder,omitempty"`
	// ShedMarginSec is the deadline-aware safety margin.
	ShedMarginSec float64 `json:"shed_margin_sec,omitempty"`
}

// OverloadPoint is one (guard, offered-load) operating point.
type OverloadPoint struct {
	// OfferedLoad is rho (total arrival rate over capacity);
	// RatePerSec the resulting Poisson rate.
	OfferedLoad float64 `json:"offered_load"`
	RatePerSec  float64 `json:"rate_per_sec"`
	// Offered counts every arrival, Requests the admitted (served)
	// ones, Shed the rejected ones; ShedRate = Shed / Offered.
	Offered  int     `json:"offered"`
	Requests int     `json:"requests"`
	Shed     int     `json:"shed,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
	// AcceptedSLA is deadline attainment over admitted requests only —
	// the guard's promise-keeping metric. GoodputPerSec is the rate of
	// served requests that met their deadlines.
	AcceptedSLA   float64 `json:"accepted_sla"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// Accepted-request latency percentiles and queue extremes.
	P50LatencySec float64 `json:"p50_latency_sec"`
	P99LatencySec float64 `json:"p99_latency_sec"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	// BackpressureEngagements counts low->high watermark crossings.
	BackpressureEngagements int `json:"backpressure_engagements,omitempty"`
}

// OverloadGuardSweep is one guard's overload curve.
type OverloadGuardSweep struct {
	Guard OverloadGuardInfo `json:"guard"`
	// Points are the operating points, same loads and arrival streams
	// as every other guard in the result.
	Points []OverloadPoint `json:"points"`
}

// OverloadResult is the overload-sweep snapshot.
type OverloadResult struct {
	// Strategy is the package organization; Classes the scheduled
	// scenario mix sharing it.
	Strategy string            `json:"strategy"`
	Classes  []OnlineClassInfo `json:"classes"`
	// CapacityPerSec is the mix-weighted service capacity the loads
	// normalize against; Seed the sweep's base RNG seed.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	Seed           int64   `json:"seed"`
	// Guards are the per-guard curves: unprotected, drop-tail,
	// deadline-aware.
	Guards []OverloadGuardSweep `json:"guards"`
}

// overloadSweepLoads are the offered-load points: saturation and 1.5x,
// 2x, 3x overload.
var overloadSweepLoads = []float64{1.0, 1.5, 2.0, 3.0}

// overloadGuards are the admission configurations under comparison.
// The watermarks/bounds are expressed in queued requests; with ~0.8 s
// service times even a depth-1 queue busts the tighter class's frame
// deadline, which is exactly the gap between drop-tail and
// deadline-aware the sweep exists to show. The deadline-aware margin
// absorbs the schedule-switch costs the implied-wait estimate ignores
// (a few ms each on this mix).
var overloadGuards = []OverloadGuardInfo{
	{Name: "unprotected"},
	{Name: "drop-tail", MaxQueueDepth: 8, HighWatermark: 4, LowWatermark: 1, Shedder: "drop-tail"},
	{Name: "deadline-aware", MaxQueueDepth: 8, Shedder: "deadline-aware", ShedMarginSec: 0.02},
}

// admission builds the guard's online.Admission (nil when unprotected).
func (g OverloadGuardInfo) admission() (*online.Admission, error) {
	if g.Shedder == "" && g.MaxQueueDepth == 0 && g.HighWatermark == 0 {
		return nil, nil
	}
	sh, err := online.ShedderByName(g.Shedder)
	if err != nil {
		return nil, err
	}
	if da, ok := sh.(online.DeadlineAware); ok {
		da.MarginSec = g.ShedMarginSec
		sh = da
	}
	return &online.Admission{
		MaxQueueDepth: g.MaxQueueDepth,
		HighWatermark: g.HighWatermark,
		LowWatermark:  g.LowWatermark,
		Shedder:       sh,
	}, nil
}

// Overload runs the overload sweep: the sc6+sc7 70/30 mix (Het-Sides
// 4x4 edge package, latency objective, one package) at 1x-3x capacity,
// once per admission guard over identical arrival streams.
func (s *Suite) Overload(ctx context.Context) (*OverloadResult, error) {
	return s.overloadSweep(ctx, 1500)
}

// overloadSweep is Overload with a configurable per-point request
// budget (tests use a smaller one).
func (s *Suite) overloadSweep(ctx context.Context, targetRequests int) (*OverloadResult, error) {
	mix, err := s.scheduleOnlineMix(ctx)
	if err != nil {
		return nil, err
	}
	res := &OverloadResult{
		Strategy:       mix.strategy,
		Classes:        mix.infos,
		CapacityPerSec: mix.capacityPerSec,
		Seed:           s.Opts.Seed,
	}
	for _, guard := range overloadGuards {
		adm, err := guard.admission()
		if err != nil {
			return nil, fmt.Errorf("experiments: overload: %s: %w", guard.Name, err)
		}
		sweep := OverloadGuardSweep{Guard: guard}
		for pi, load := range overloadSweepLoads {
			totalRate := load * mix.capacityPerSec
			horizon := float64(targetRequests) / totalRate
			cfgClasses := make([]online.Class, len(mix.classes))
			for i, share := range mix.shares {
				cfgClasses[i] = mix.classes[i]
				cfgClasses[i].Arrivals = online.Poisson{
					RatePerSec: share * totalRate,
					// Same (point, class) seed scheme as sweepPoints, so
					// every guard faces identical arrival streams and the
					// curves differ only by admission decisions.
					Seed: s.Opts.Seed + int64(pi)*100 + int64(i),
				}
			}
			rep, err := online.Simulate(ctx, online.Config{
				Classes:    cfgClasses,
				Packages:   1,
				Policy:     online.FIFO{},
				HorizonSec: horizon,
				Admission:  adm,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: overload: %s load %.2f: %w", guard.Name, load, err)
			}
			pt := OverloadPoint{
				OfferedLoad:             load,
				RatePerSec:              totalRate,
				Offered:                 rep.OfferedRequests,
				Requests:                rep.Requests,
				Shed:                    rep.ShedRequests,
				AcceptedSLA:             rep.SLAAttainment,
				GoodputPerSec:           rep.SLAAttainment * float64(rep.Requests) / horizon,
				P50LatencySec:           rep.P50LatencySec,
				P99LatencySec:           rep.P99LatencySec,
				MaxQueueDepth:           rep.MaxQueueDepth,
				BackpressureEngagements: rep.BackpressureEngagements,
			}
			if rep.OfferedRequests > 0 {
				pt.ShedRate = float64(rep.ShedRequests) / float64(rep.OfferedRequests)
			}
			sweep.Points = append(sweep.Points, pt)
		}
		res.Guards = append(res.Guards, sweep)
	}
	return res, nil
}

// Sweep returns the named guard's curve, nil when absent.
func (r *OverloadResult) Sweep(name string) *OverloadGuardSweep {
	for i := range r.Guards {
		if r.Guards[i].Guard.Name == name {
			return &r.Guards[i]
		}
	}
	return nil
}

// Point returns the guard's point at the given offered load, nil when
// absent.
func (gs *OverloadGuardSweep) Point(load float64) *OverloadPoint {
	for i := range gs.Points {
		if gs.Points[i].OfferedLoad == load {
			return &gs.Points[i]
		}
	}
	return nil
}

// Print renders the sweep as one table per guard.
func (r *OverloadResult) Print(w io.Writer) {
	fprintf(w, "Overload sweep: %s, 1 package, ", r.Strategy)
	for i, c := range r.Classes {
		if i > 0 {
			fprintf(w, " + ")
		}
		fprintf(w, "sc%d (%.0f%%, %.1f ms/req, switch-in %.2f ms)",
			c.Scenario, 100*c.Share, 1e3*c.ServiceSec, 1e3*c.SwitchInSec)
	}
	fprintf(w, "\ncapacity %.1f req/s, seed %d\n", r.CapacityPerSec, r.Seed)
	for _, gs := range r.Guards {
		g := gs.Guard
		fprintf(w, "\nguard %s", g.Name)
		if g.Shedder != "" {
			fprintf(w, " (depth %d, watermarks %d/%d, shedder %s, margin %.0f ms)",
				g.MaxQueueDepth, g.LowWatermark, g.HighWatermark, g.Shedder, 1e3*g.ShedMarginSec)
		}
		fprintf(w, "\n%8s %8s %8s %7s %9s %12s %9s %9s %7s %8s\n",
			"load", "offered", "served", "shed", "SLA", "goodput/s", "p50 ms", "p99 ms", "maxQ", "engages")
		for _, p := range gs.Points {
			fprintf(w, "%8.2f %8d %8d %6.0f%% %8.1f%% %12.3f %9.2f %9.2f %7d %8d\n",
				p.OfferedLoad, p.Offered, p.Requests, 100*p.ShedRate,
				100*p.AcceptedSLA, p.GoodputPerSec,
				1e3*p.P50LatencySec, 1e3*p.P99LatencySec,
				p.MaxQueueDepth, p.BackpressureEngagements)
		}
	}
}

// WriteJSON writes the snapshot as indented JSON (the
// BENCH_overload.json format).
func (r *OverloadResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
