package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/online"
)

// sweepConfig is one simulator operating point of the grid.
type sweepConfig struct {
	load     float64 // offered load as a fraction of the fleet's capacity
	packages int
	policy   online.Policy
	shed     bool // deadline-aware admission control
}

// sweepGrid is offered load {0.5, 0.9, 1.2, 1.5} x packages {1, 4} x
// policy {fifo, edf, switch-aware} x admission {none, deadline-aware}:
// 48 points, from short queues to unprotected overload thousands deep.
func sweepGrid(small bool) []sweepConfig {
	var out []sweepConfig
	for _, load := range []float64{0.5, 0.9, 1.2, 1.5} {
		for _, pkgs := range []int{1, 4} {
			for _, pol := range []online.Policy{online.FIFO{}, online.EDF{}, online.SwitchAware{}} {
				for _, shed := range []bool{false, true} {
					out = append(out, sweepConfig{load, pkgs, pol, shed})
				}
			}
		}
	}
	if small {
		return []sweepConfig{out[0], out[len(out)-1]}
	}
	return out
}

// sweepRequestsPerClass sizes one op: 2,000 requests per class, 10,000
// over the five classes.
const sweepRequestsPerClass = 2000

// sweepState is one set-up of simulate-sweep: the classes, scheduled once
// on a het-sides 4x4 edge package with the latency objective.
type sweepState struct {
	classes []online.Class
	// serviceSum is the classes' summed service latency, the unit the
	// offered load converts to arrival rates with.
	serviceSum float64
}

func setUpSweep(ctx context.Context, small bool) (*sweepState, error) {
	db := costdb.New(maestro.DefaultParams())
	opts := core.DefaultOptions()
	m := mcm.HetSides(4, 4, maestro.DefaultEdgeChiplet())
	sched := core.New(db, opts)
	nums := []int{6, 7, 8, 9, 10}
	if small {
		nums = []int{8, 10}
	}
	st := &sweepState{}
	for _, n := range nums {
		sc, err := models.ScenarioByNumber(n)
		if err != nil {
			return nil, err
		}
		res, err := sched.Schedule(ctx, core.NewRequest(&sc, m, core.LatencyObjective()))
		if err != nil {
			return nil, fmt.Errorf("schedule %s: %w", sc.Name, err)
		}
		cl, err := online.NewClass(sc.Name, eval.New(db, m, &sc, opts.Eval), res.Schedule, nil, 3)
		if err != nil {
			return nil, err
		}
		st.classes = append(st.classes, cl)
		st.serviceSum += cl.Metrics.LatencySec
	}
	return st, nil
}

// simConfig is the simulator input of grid point k. Arrival seeds come
// from the run's seed and k, so every pass repeats the same simulations.
func (st *sweepState) simConfig(seed int64, k int, c sweepConfig, perClass int, timing bool) online.Config {
	rate := c.load * float64(c.packages) / st.serviceSum
	classes := make([]online.Class, len(st.classes))
	for i, cl := range st.classes {
		cl.Arrivals = online.Poisson{RatePerSec: rate, Seed: seed*1_000_003 + int64(k)*101 + int64(i)}
		classes[i] = cl
	}
	cfg := online.Config{
		Classes:             classes,
		Packages:            c.packages,
		Policy:              c.policy,
		MaxRequestsPerClass: perClass,
		CollectTiming:       timing,
	}
	if c.shed {
		cfg.Admission = &online.Admission{Shedder: online.DeadlineAware{}}
	}
	return cfg
}

// reportDigest hashes every deterministic field of a report, Timing
// excluded.
func reportDigest(rep *online.Report) uint64 {
	cp := *rep
	cp.Timing = nil
	d := newDigester()
	agg, _ := json.Marshal(&cp) // aggregates only: outcomes are not JSON fields
	d.bytes(agg)
	for _, o := range rep.Outcomes {
		d.int(o.Class)
		d.int(o.Seq)
		d.int(o.Package)
		d.f64(o.ArrivalSec)
		d.f64(o.BusyStartSec)
		d.f64(o.StartSec)
		d.f64(o.FinishSec)
		d.int(len(o.MissedModels))
	}
	for _, s := range rep.Shed {
		d.int(s.Class)
		d.int(s.Seq)
		d.f64(s.ArrivalSec)
		d.str(s.Reason)
	}
	return d.sum()
}

// runSimulateSweep is a closed loop over online.Simulate: one caller runs
// the 48 grid points per pass, in an order drawn from the seed, for as
// many whole passes as fit in the run's seconds. Every op must account
// each offered request as served or shed and repeat the first pass's
// report bit for bit; grid point 0 is re-run at the end and must
// DeepEqual its first report.
func runSimulateSweep(ctx context.Context, r *run) error {
	st, _, err := setUp(r, func() (*sweepState, func(), error) {
		st, err := setUpSweep(ctx, r.cfg.small)
		return st, func() {}, err
	})
	if err != nil {
		return err
	}
	grid := sweepGrid(r.cfg.small)
	perClass := sweepRequestsPerClass
	if r.cfg.small {
		perClass = 200
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	first := make([]uint64, len(grid))
	var firstOp0 *online.Report
	var sla []float64
	var offered, shed, switches, depthMax float64
	var timing online.PhaseTimings
	var deepNs, deepReqs, shallowNs, shallowReqs, timedOps float64
	budget := time.Duration(r.cfg.seconds * float64(time.Second))

	r.beginMeasure()
	start := time.Now()
	var lastPass time.Duration
	for pass := 0; pass == 0 || time.Since(start)+lastPass <= budget; pass++ {
		passStart := time.Now()
		traced := r.rec != nil && pass%2 == 0
		for _, k := range rng.Perm(len(grid)) {
			cfg := st.simConfig(r.cfg.seed, k, grid[k], perClass, traced)
			opStart := time.Now()
			rep, err := online.Simulate(ctx, cfg)
			opEnd := time.Now()
			elapsed := opEnd.Sub(opStart)
			op := r.attempted
			r.attempted++
			r.goodSpan += elapsed
			if traced {
				r.tracedLat = append(r.tracedLat, ms(elapsed))
				r.rec.add(0, op, "online", "simulate", opStart, opEnd)
			} else {
				r.lat = append(r.lat, ms(elapsed))
			}
			if why := checkReport(rep, err); why != "" {
				r.opFailed("grid point %d: %s", k, why)
				continue
			}
			dg := reportDigest(rep)
			if pass == 0 {
				first[k] = dg
				if k == 0 {
					firstOp0 = rep
				}
				sla = append(sla, rep.SLAAttainment)
				offered += float64(rep.OfferedRequests)
				shed += float64(rep.ShedRequests)
				switches += float64(rep.ScheduleSwitches)
				depthMax = max(depthMax, float64(rep.MaxQueueDepth))
			} else if dg != first[k] {
				r.opFailed("grid point %d: report differs from the first pass's", k)
				continue
			}
			r.good++
			if t := rep.Timing; t != nil {
				timedOps++
				timing.ValidateMs += t.ValidateMs
				timing.ArrivalsMs += t.ArrivalsMs
				timing.EventLoopMs += t.EventLoopMs
				timing.AggregateMs += t.AggregateMs
				if rep.MaxQueueDepth >= 100 {
					deepNs += t.EventLoopMs * 1e6
					deepReqs += float64(rep.OfferedRequests)
				} else {
					shallowNs += t.EventLoopMs * 1e6
					shallowReqs += float64(rep.OfferedRequests)
				}
			}
		}
		lastPass = time.Since(passStart)
		r.passes++
	}
	r.measured = time.Since(start)
	r.endMeasure()
	r.tailOfSlowest()

	if firstOp0 != nil {
		again, err := online.Simulate(ctx, st.simConfig(r.cfg.seed, 0, grid[0], perClass, false))
		want := *firstOp0
		want.Timing = nil
		if err != nil || !reflect.DeepEqual(&want, again) {
			r.checkFailed("grid point 0 re-run does not DeepEqual its first report (err %v)", err)
		}
	}
	d := newDigester()
	for _, dg := range first {
		d.u64(dg)
	}
	r.digest = d.sum()
	r.notes = append(r.notes, fmt.Sprintf("%d grid points per pass, %d requests per op; mean SLA attainment (simulated) %.6g",
		len(grid), perClass*len(st.classes), mean(sla)))
	if r.rec == nil {
		return nil
	}

	if timedOps > 0 {
		r.layers["online.validate_ms"] = timing.ValidateMs / timedOps
		r.layers["online.arrivals_ms"] = timing.ArrivalsMs / timedOps
		r.layers["online.event_loop_ms"] = timing.EventLoopMs / timedOps
		r.layers["online.aggregate_ms"] = timing.AggregateMs / timedOps
	}
	if deepReqs > 0 {
		r.layers["online.event_loop_ns_per_req_deep"] = deepNs / deepReqs
	}
	if shallowReqs > 0 {
		r.layers["online.event_loop_ns_per_req_shallow"] = shallowNs / shallowReqs
	}
	r.layers["online.offered"] = offered
	r.layers["online.shed"] = shed
	r.layers["online.queue_depth_max"] = depthMax
	r.layers["online.switches"] = switches
	r.layers["online.sla_attainment"] = mean(sla)
	return nil
}

// checkReport returns why a simulation's report fails its accounting
// checks ("" when it passes).
func checkReport(rep *online.Report, err error) string {
	if err != nil {
		return err.Error()
	}
	if rep.OfferedRequests != rep.Requests+rep.ShedRequests {
		return fmt.Sprintf("offered %d != requests %d + shed %d", rep.OfferedRequests, rep.Requests, rep.ShedRequests)
	}
	for _, c := range rep.PerClass {
		if c.Offered != c.Requests+c.Shed {
			return fmt.Sprintf("class %s: offered %d != requests %d + shed %d", c.Name, c.Offered, c.Requests, c.Shed)
		}
	}
	return ""
}
