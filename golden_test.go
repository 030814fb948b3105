package scar_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	scar "example.com/scar"
)

// goldenDigest hashes every exported deterministic field of a Result:
// the schedule's segments, the float bits of every metric (per window
// and per model included), Splits, WindowEvals, UniqueWindows,
// Candidates and the Explored cloud. It mirrors internal/core's golden
// digest, so a facade result and a core result of one search agree.
func goldenDigest(res *scar.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	perModel := func(m map[int]float64) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		i(len(keys))
		for _, k := range keys {
			i(k)
			f(m[k])
		}
	}
	metrics := func(m scar.Metrics) {
		f(m.LatencySec)
		f(m.EnergyJ)
		f(m.EDP)
		i(len(m.Windows))
		for _, w := range m.Windows {
			f(w.LatencySec)
			f(w.EnergyJ)
			i(w.NumLayers)
			perModel(w.ModelLatency)
		}
		perModel(m.ModelLatency)
	}
	i(len(res.Schedule.Windows))
	for _, w := range res.Schedule.Windows {
		i(w.Index)
		i(len(w.Segments))
		for _, s := range w.Segments {
			i(s.Model)
			i(s.First)
			i(s.Last)
			i(s.Chiplet)
			i(s.Order)
		}
	}
	metrics(res.Metrics)
	i(res.Splits)
	i(res.WindowEvals)
	i(res.UniqueWindows)
	i(res.Candidates)
	i(len(res.Explored))
	for _, c := range res.Explored {
		i(c.Splits)
		i(c.Windows)
		metrics(c.Metrics)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSessionAPIGolden pins the public API's search results: scenarios
// 1, 6 and 9 on a 3x3 het-sides package under the EDP objective, with
// fast options. Scheduler.Schedule and Session.Schedule must both
// reproduce the pinned digest and must never report Partial without a
// deadline.
func TestSessionAPIGolden(t *testing.T) {
	want := map[int]string{
		1: "ea724a1d852627ad",
		6: "9237859509586ffc",
		9: "a0004c4d0711a956",
	}
	sched := scar.NewScheduler(scar.FastOptions())
	for _, n := range []int{1, 6, 9} {
		sc, err := scar.ScenarioByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		profile := scar.DatacenterChiplet()
		if n >= 6 {
			profile = scar.EdgeChiplet()
		}
		pkg, err := scar.MCMByName("het-sides", 3, 3, profile)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := sched.NewSession(&sc, pkg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		legs := []struct {
			name string
			run  func() (*scar.Result, error)
		}{
			{"Scheduler.Schedule", func() (*scar.Result, error) {
				return sched.Schedule(ctx, scar.NewRequest(&sc, pkg, scar.EDPObjective()))
			}},
			{"Session.Schedule", func() (*scar.Result, error) {
				return ses.Schedule(ctx, scar.EDPObjective())
			}},
		}
		for _, leg := range legs {
			res, err := leg.run()
			if err != nil {
				t.Fatalf("scenario %d: %s: %v", n, leg.name, err)
			}
			if res.Partial {
				t.Errorf("scenario %d: %s reported Partial without cancellation", n, leg.name)
			}
			if got := goldenDigest(res); got != want[n] {
				t.Errorf("scenario %d: %s digest %s, want %s", n, leg.name, got, want[n])
			}
		}
	}
}
