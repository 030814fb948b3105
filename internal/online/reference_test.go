package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"example.com/scar/internal/trace"
)

// referenceSimulate is the pre-refactor simulator: the single-package
// FIFO loop that served the merged arrival stream in order, kept as an
// executable specification for the multi-package engine. The three
// accounting fixes that landed with the engine (per-class deadline
// counters under the global membership rule, queue-depth pops at busy
// start, package/busy-start outcome fields) are applied here too, so a
// Simulate run at Packages=1 with the FIFO policy must reproduce it
// bit-identically — the equivalence test below asserts reflect.DeepEqual
// on the whole report.
func referenceSimulate(t *testing.T, cfg Config) *Report {
	t.Helper()
	var reqs []refPending
	for ci := range cfg.Classes {
		times, err := cfg.Classes[ci].Arrivals.Times(context.Background(), cfg.HorizonSec, cfg.MaxRequestsPerClass)
		if err != nil {
			t.Fatal(err)
		}
		for seq, tm := range times {
			reqs = append(reqs, refPending{class: ci, seq: seq, arrival: tm})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].arrival != reqs[j].arrival {
			return reqs[i].arrival < reqs[j].arrival
		}
		if reqs[i].class != reqs[j].class {
			return reqs[i].class < reqs[j].class
		}
		return reqs[i].seq < reqs[j].seq
	})

	rep := &Report{Requests: len(reqs), Packages: 1, Policy: "fifo"}
	rep.PerPackage = []PackageReport{{}}
	if len(reqs) == 0 {
		rep.SLAAttainment = 1
		return rep
	}

	rep.Outcomes = make([]RequestOutcome, 0, len(reqs))
	perChecks := make([]int, len(cfg.Classes))
	perMisses := make([]int, len(cfg.Classes))
	freeAt := 0.0
	curClass := -1
	var totalWait, totalQueueWait, totalSojourn float64
	for _, rq := range reqs {
		c := &cfg.Classes[rq.class]
		start := rq.arrival
		if freeAt > start {
			start = freeAt
		}
		out := RequestOutcome{Class: rq.class, Seq: rq.seq, ArrivalSec: rq.arrival}
		busyStart := start
		if rq.class != curClass {
			if curClass >= 0 {
				rep.ScheduleSwitches++
				rep.SwitchSec += c.SwitchInSec
				rep.PerPackage[0].ScheduleSwitches++
				rep.PerPackage[0].SwitchSec += c.SwitchInSec
				start += c.SwitchInSec
				out.Switched = true
			}
			curClass = rq.class
		}
		finish := start + c.Metrics.LatencySec
		out.BusyStartSec = busyStart
		out.StartSec = start
		out.FinishSec = finish
		out.WaitSec = start - rq.arrival
		out.SojournSec = finish - rq.arrival
		freeAt = finish

		for mi := 0; mi < len(c.Scenario.Models); mi++ {
			d, ok := c.Deadlines[mi]
			if !ok {
				continue
			}
			rep.DeadlineChecks++
			perChecks[rq.class]++
			mLat, ok := c.Metrics.ModelLatency[mi]
			if !ok {
				mLat = c.Metrics.LatencySec
			}
			if start+mLat-rq.arrival > d {
				rep.DeadlineMisses++
				perMisses[rq.class]++
				out.MissedModels = append(out.MissedModels, mi)
			}
		}
		if len(out.MissedModels) == 0 {
			rep.RequestsOnTime++
		}

		totalWait += out.WaitSec
		totalQueueWait += busyStart - rq.arrival
		totalSojourn += out.SojournSec
		rep.BusySec += finish - busyStart
		rep.PerPackage[0].Requests++
		rep.PerPackage[0].BusySec += finish - busyStart
		rep.EnergyJ += c.Metrics.EnergyJ
		if finish > rep.MakespanSec {
			rep.MakespanSec = finish
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	rep.finish(cfg, totalWait, totalQueueWait, totalSojourn, perChecks, perMisses, nil)
	return rep
}

// TestFIFOSinglePackageMatchesReference: the event-driven engine at
// Packages=1 with the FIFO policy (explicitly and via the defaults)
// reproduces the pre-refactor arrival-order loop bit-for-bit.
func TestFIFOSinglePackageMatchesReference(t *testing.T) {
	cfgs := map[string]Config{
		"poisson-mix": {
			Classes: []Class{
				mustClass(t, "a", Poisson{RatePerSec: 3, Seed: 7}, 3),
				mustClass(t, "b", Poisson{RatePerSec: 1, Seed: 11}, 3),
			},
			HorizonSec: 60,
		},
		"alternating-periodic": {
			Classes: []Class{
				mustClass(t, "a", Periodic{PeriodSec: 1}, 2),
				mustClass(t, "b", Periodic{PeriodSec: 1, OffsetSec: 0.5}, 2),
			},
			HorizonSec: 25,
		},
		"trace-ties": {
			Classes: []Class{
				mustClass(t, "a", Trace{TimesSec: []float64{0, 0, 1, 1, 1, 4}}, 2),
				mustClass(t, "b", Trace{TimesSec: []float64{0, 1, 4}}, 2),
			},
			HorizonSec: 100,
		},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want := referenceSimulate(t, cfg)
			for _, variant := range []struct {
				label string
				mod   func(Config) Config
			}{
				{"defaults", func(c Config) Config { return c }},
				{"explicit", func(c Config) Config { c.Packages = 1; c.Policy = FIFO{}; return c }},
			} {
				got, err := Simulate(context.Background(), variant.mod(cfg))
				if err != nil {
					t.Fatalf("%s: %v", variant.label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: engine diverged from the pre-refactor FIFO reference\ngot:  %+v\nwant: %+v",
						variant.label, got, want)
				}
			}
		})
	}
}

// refPending is one generated arrival of the flat-queue reference.
type refPending struct {
	class, seq int
	arrival    float64
}

// referenceQueueSimulate is the flat-queue engine that preceded the
// per-class waiting slices, kept as an executable specification of
// Simulate's dispatch semantics: it merges every class's arrivals into
// one slice with a stable sort on (time, class, sequence), keeps one
// arrival-ordered []Queued that Policy.Pick scans in full and that each
// dispatch deletes from, hands shedders that queue split by class (each
// class's requests in queue order), and sweeps
// queue depth over one event list sorted with pops before pushes at
// equal times. Simulate must reproduce it bit-identically on every
// valid configuration (TestSimulateMatchesQueueReference,
// FuzzSimulateMatchesReference).
func referenceQueueSimulate(t testing.TB, cfg Config) *Report {
	t.Helper()
	nPkgs := cfg.Packages
	if nPkgs == 0 {
		nPkgs = 1
	}
	pol := cfg.Policy
	if pol == nil {
		pol = FIFO{}
	}
	var reqs []refPending
	for ci := range cfg.Classes {
		times, err := cfg.Classes[ci].Arrivals.Times(context.Background(), cfg.HorizonSec, cfg.MaxRequestsPerClass)
		if err != nil {
			t.Fatal(err)
		}
		for seq, tm := range times {
			reqs = append(reqs, refPending{class: ci, seq: seq, arrival: tm})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].arrival != reqs[j].arrival {
			return reqs[i].arrival < reqs[j].arrival
		}
		if reqs[i].class != reqs[j].class {
			return reqs[i].class < reqs[j].class
		}
		return reqs[i].seq < reqs[j].seq
	})

	rep := &Report{Requests: len(reqs), Packages: nPkgs, Policy: pol.Name()}
	rep.PerPackage = make([]PackageReport, nPkgs)
	for p := range rep.PerPackage {
		rep.PerPackage[p].Package = p
	}
	if len(reqs) == 0 {
		rep.SLAAttainment = 1
		return rep
	}
	maxSpans := cfg.MaxTimelineSpans
	if maxSpans <= 0 {
		maxSpans = 100000
	}
	var tl *trace.Timeline
	if cfg.EmitTimeline {
		tl = &trace.Timeline{}
		for _, c := range cfg.Classes {
			if c.Spans != nil && c.Spans.Chiplets > tl.Chiplets {
				tl.Chiplets = c.Spans.Chiplets
			}
		}
	}
	minDL := make([]float64, len(cfg.Classes))
	for ci := range cfg.Classes {
		minDL[ci] = cfg.Classes[ci].minDeadlineOffset()
	}
	deadline := func(rq refPending) float64 {
		if math.IsInf(minDL[rq.class], 1) {
			return math.Inf(1)
		}
		return rq.arrival + minDL[rq.class]
	}
	adm := cfg.Admission
	var shedder Shedder
	var admClasses []ShedClassView
	engaged := false
	if adm != nil {
		shedder = adm.shedder()
		admClasses = make([]ShedClassView, len(cfg.Classes))
		for ci := range cfg.Classes {
			admClasses[ci] = ShedClassView{
				ServiceSec: cfg.Classes[ci].Metrics.LatencySec,
				MaxWaitSec: cfg.Classes[ci].maxWaitOffset(),
			}
		}
	}

	rep.Outcomes = make([]RequestOutcome, 0, len(reqs))
	pkgs := make([]pkgState, nPkgs)
	for p := range pkgs {
		pkgs[p].class = -1
	}
	perChecks := make([]int, len(cfg.Classes))
	perMisses := make([]int, len(cfg.Classes))
	var queue []Queued
	next := 0
	var totalWait, totalQueueWait, totalSojourn float64
	for next < len(reqs) || len(queue) > 0 {
		t := pkgs[0].freeAt
		for p := 1; p < nPkgs; p++ {
			if pkgs[p].freeAt < t {
				t = pkgs[p].freeAt
			}
		}
		minFree := t
		avail := 0.0
		if len(queue) > 0 {
			avail = queue[0].ArrivalSec
		} else {
			avail = reqs[next].arrival
		}
		if avail > t {
			t = avail
		}
		pi := 0
		for pkgs[pi].freeAt > t {
			pi++
		}
		for next < len(reqs) && reqs[next].arrival <= t {
			rq := reqs[next]
			next++
			if adm != nil {
				if engaged && len(queue) <= adm.LowWatermark {
					engaged = false
				}
				if !engaged && adm.HighWatermark > 0 && len(queue) >= adm.HighWatermark {
					engaged = true
					rep.BackpressureEngagements++
				}
				reason := ""
				if adm.MaxQueueDepth > 0 && len(queue) >= adm.MaxQueueDepth {
					reason = ReasonQueueFull
				} else {
					arr := Queued{Class: rq.class, Seq: rq.seq, ArrivalSec: rq.arrival, DeadlineSec: deadline(rq)}
					view := AdmissionView{
						Packages:        nPkgs,
						NowSec:          rq.arrival,
						EarliestFreeSec: minFree,
						Engaged:         engaged,
						Classes:         admClasses,
					}
					if shedder.Shed(arr, splitByClass(queue, len(cfg.Classes)), view) {
						reason = shedder.Name()
					}
				}
				if reason != "" {
					rep.Shed = append(rep.Shed, ShedOutcome{Class: rq.class, Seq: rq.seq, ArrivalSec: rq.arrival, Reason: reason})
					continue
				}
			}
			queue = append(queue, Queued{Class: rq.class, Seq: rq.seq, ArrivalSec: rq.arrival, DeadlineSec: deadline(rq)})
		}
		if len(queue) == 0 {
			continue
		}

		st := &pkgs[pi]
		k := pol.Pick(queue, PackageView{Index: pi, Class: st.class, Run: st.run, NowSec: t})
		rq := queue[k]
		queue = append(queue[:k], queue[k+1:]...)
		c := &cfg.Classes[rq.Class]
		out := RequestOutcome{Class: rq.Class, Seq: rq.Seq, Package: pi, ArrivalSec: rq.ArrivalSec}
		busyStart, start := t, t
		if rq.Class != st.class {
			if st.class >= 0 {
				rep.ScheduleSwitches++
				rep.SwitchSec += c.SwitchInSec
				rep.PerPackage[pi].ScheduleSwitches++
				rep.PerPackage[pi].SwitchSec += c.SwitchInSec
				start += c.SwitchInSec
				out.Switched = true
			}
			st.class = rq.Class
			st.run = 1
		} else {
			st.run++
		}
		finish := start + c.Metrics.LatencySec
		st.freeAt = finish
		out.BusyStartSec = busyStart
		out.StartSec = start
		out.FinishSec = finish
		out.WaitSec = start - rq.ArrivalSec
		out.SojournSec = finish - rq.ArrivalSec
		for mi := 0; mi < len(c.Scenario.Models); mi++ {
			d, ok := c.Deadlines[mi]
			if !ok {
				continue
			}
			rep.DeadlineChecks++
			perChecks[rq.Class]++
			mLat, ok := c.Metrics.ModelLatency[mi]
			if !ok {
				mLat = c.Metrics.LatencySec
			}
			if start+mLat-rq.ArrivalSec > d {
				rep.DeadlineMisses++
				perMisses[rq.Class]++
				out.MissedModels = append(out.MissedModels, mi)
			}
		}
		if len(out.MissedModels) == 0 {
			rep.RequestsOnTime++
		}
		totalWait += out.WaitSec
		totalQueueWait += busyStart - rq.ArrivalSec
		totalSojourn += out.SojournSec
		rep.BusySec += finish - busyStart
		rep.PerPackage[pi].Requests++
		rep.PerPackage[pi].BusySec += finish - busyStart
		rep.EnergyJ += c.Metrics.EnergyJ
		if finish > rep.MakespanSec {
			rep.MakespanSec = finish
		}
		if tl != nil && c.Spans != nil && !rep.TimelineTruncated {
			if len(tl.Spans)+len(c.Spans.Spans) > maxSpans {
				rep.TimelineTruncated = true
			} else {
				for _, sp := range c.Spans.Spans {
					sp.StartSec += start
					sp.EndSec += start
					tl.Spans = append(tl.Spans, sp)
				}
			}
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	rep.finish(cfg, totalWait, totalQueueWait, totalSojourn, perChecks, perMisses, tl)
	rep.MaxQueueDepth = referenceMaxQueueDepth(rep.Outcomes)
	return rep
}

// splitByClass returns q's requests of each class, in q's order.
func splitByClass(q []Queued, classes int) [][]Queued {
	out := make([][]Queued, classes)
	for _, w := range q {
		out[w.Class] = append(out[w.Class], w)
	}
	return out
}

// referenceMaxQueueDepth is the event-sort queue-depth sweep: one event
// per arrival (+1) and per busy start (-1), stably sorted on time with
// pops first at equal times, then a running sum.
func referenceMaxQueueDepth(outs []RequestOutcome) int {
	type qEvent struct {
		t     float64
		delta int
	}
	evs := make([]qEvent, 0, 2*len(outs))
	for _, o := range outs {
		evs = append(evs, qEvent{t: o.ArrivalSec, delta: 1}, qEvent{t: o.BusyStartSec, delta: -1})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// queueConfigFromBytes decodes a small simulation configuration from
// data, one byte per choice (missing bytes read as zero), over classes
// derived from base. Every choice the dispatcher branches on is
// reachable: one to five classes, 1/2/4 packages, FIFO, EDF and
// SwitchAware with MaxRun 1-8, admission off, drop-tail watermarks,
// DeadlineAware with a margin, a hard queue bound and all three
// together, deadline-bound and unconstrained classes, loads from light
// to several times overload, and Poisson, Periodic and quantized Trace
// streams whose timestamps tie across classes.
func queueConfigFromBytes(base Class, data []byte) Config {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	nClasses := 1 + next()%5
	cfg := Config{
		Packages:            []int{1, 2, 4}[next()%3],
		MaxRequestsPerClass: 1 + next(),
	}
	if next()%4 == 0 {
		cfg.Packages = 0 // the default single package
	}
	switch next() % 4 {
	case 1:
		cfg.Policy = FIFO{}
	case 2:
		cfg.Policy = EDF{}
	case 3:
		cfg.Policy = SwitchAware{MaxRun: 1 + next()%8}
	}
	unit := base.Metrics.LatencySec
	load := 0.25 + float64(next())/64 // 0.25 .. ~4.2x the fleet's capacity
	pk := cfg.Packages
	if pk == 0 {
		pk = 1
	}
	switch next() % 5 {
	case 1:
		high := 1 + next()%6
		cfg.Admission = &Admission{HighWatermark: high, LowWatermark: next() % (high + 1)}
	case 2:
		cfg.Admission = &Admission{Shedder: DeadlineAware{MarginSec: unit * float64(next()%4) / 4}}
	case 3:
		cfg.Admission = &Admission{MaxQueueDepth: 1 + next()%16}
	case 4:
		high := 1 + next()%6
		cfg.Admission = &Admission{
			MaxQueueDepth: high + next()%4,
			HighWatermark: high,
			LowWatermark:  next() % (high + 1),
			Shedder:       DeadlineAware{MarginSec: unit * float64(next()%4) / 4},
		}
	}
	if b := next(); b%4 == 0 {
		cfg.HorizonSec = unit * float64(8+b)
	}
	if next()%8 == 0 {
		cfg.EmitTimeline = true
		cfg.MaxTimelineSpans = 1 + next()*4
	}
	for ci := 0; ci < nClasses; ci++ {
		c := base
		c.Name = fmt.Sprintf("c%d", ci)
		scale := 0.5 + float64(next()%8)/4
		c.Metrics.LatencySec = base.Metrics.LatencySec * scale
		c.Metrics.ModelLatency = make(map[int]float64, len(base.Metrics.ModelLatency))
		for mi, lat := range base.Metrics.ModelLatency {
			c.Metrics.ModelLatency[mi] = lat * scale
		}
		c.SwitchInSec = c.Metrics.LatencySec * float64(next()%4) / 4
		c.Deadlines = map[int]float64{}
		if b := next(); b%4 != 0 {
			c.Deadlines[0] = c.Metrics.LatencySec * float64(1+b%8) / 2
			if b%3 == 0 {
				c.Deadlines[1] = c.Metrics.LatencySec * float64(2+b%5)
			}
		}
		rate := load * float64(pk) / (float64(nClasses) * c.Metrics.LatencySec)
		switch next() % 3 {
		case 0:
			c.Arrivals = Poisson{RatePerSec: rate, Seed: int64(next())}
		case 1:
			// Periods and offsets on a shared grid: timestamps tie
			// across classes.
			c.Arrivals = Periodic{PeriodSec: unit * float64(1+next()%3) / 2, OffsetSec: unit * float64(next()%2)}
		default:
			// Quantized steps, zero included: ties within and across
			// classes.
			n := 1 + next()%64
			times := make([]float64, n)
			tm := 0.0
			for i := range times {
				tm += unit * float64(next()%3) / 2
				times[i] = tm
			}
			c.Arrivals = Trace{TimesSec: times}
		}
		cfg.Classes = append(cfg.Classes, c)
	}
	return cfg
}

// TestSimulateMatchesQueueReference: on random configurations covering
// every policy, package count and admission mode, Simulate reproduces
// the flat-queue reference engine bit-for-bit.
func TestSimulateMatchesQueueReference(t *testing.T) {
	base := mustClass(t, "base", nil, 0)
	rng := rand.New(rand.NewSource(1))
	n := 400
	if testing.Short() {
		n = 100
	}
	data := make([]byte, 96)
	for i := 0; i < n; i++ {
		rng.Read(data)
		cfg := queueConfigFromBytes(base, data)
		want := referenceQueueSimulate(t, cfg)
		got, err := Simulate(context.Background(), cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d (%d classes, %d packages, policy %s, admission %+v): engine diverged from the flat-queue reference\ngot:  %+v\nwant: %+v",
				i, len(cfg.Classes), got.Packages, got.Policy, cfg.Admission, got, want)
		}
	}
}

// TestMaxQueueDepthMatchesReference: the queue-depth sweep agrees with
// the event-sort reference on random outcomes whose arrival and busy
// start times tie often.
func TestMaxQueueDepthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		outs := make([]RequestOutcome, rng.Intn(40))
		for j := range outs {
			a := float64(rng.Intn(20))
			outs[j] = RequestOutcome{ArrivalSec: a, BusyStartSec: a + float64(rng.Intn(3))}
		}
		if got, want := maxQueueDepth(outs), referenceMaxQueueDepth(outs); got != want {
			t.Fatalf("case %d: maxQueueDepth = %d, reference %d (outcomes %+v)", i, got, want, outs)
		}
	}
}

// randomArrivalQueue builds a waiting queue in arrival-merge order
// (time, class, sequence) over up to six classes, with arrival times on
// a coarse grid so they tie within and across classes, a mix of
// deadline-bound and unconstrained classes, and deadlines that tie
// across classes.
func randomArrivalQueue(rng *rand.Rand) []Queued {
	nClasses := 1 + rng.Intn(6)
	minDL := make([]float64, nClasses)
	for c := range minDL {
		if rng.Intn(3) == 0 {
			minDL[c] = math.Inf(1)
		} else {
			minDL[c] = float64(rng.Intn(4))
		}
	}
	q := make([]Queued, 1+rng.Intn(30))
	seqs := make([]int, nClasses)
	tm := 0.0
	for i := range q {
		tm += float64(rng.Intn(2))
		c := rng.Intn(nClasses)
		q[i] = Queued{Class: c, Seq: seqs[c], ArrivalSec: tm, DeadlineSec: tm + minDL[c]}
		seqs[c]++
	}
	sortQueued(q)
	return q
}

// queueHeads returns the first waiting request of each class present in
// q, in q's order.
func queueHeads(q []Queued) []Queued {
	var heads []Queued
	seen := map[int]bool{}
	for _, w := range q {
		if !seen[w.Class] {
			seen[w.Class] = true
			heads = append(heads, w)
		}
	}
	return heads
}

// TestBuiltinPoliciesPickClassHeads: on random arrival-ordered queues,
// every built-in policy's pick over the full queue is the head of its
// class, and the same policy picks that request out of the engine's
// class heads. Pushes and pops interleave as in the event loop, and
// after each step the engine's heads and per-class waiting slices must
// equal the flat queue's.
func TestBuiltinPoliciesPickClassHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	policies := []Policy{FIFO{}, EDF{}}
	for r := 1; r <= 8; r++ {
		policies = append(policies, SwitchAware{MaxRun: r})
	}
	for i := 0; i < 500; i++ {
		arrivals := randomArrivalQueue(rng)
		counts := make([]int, 6)
		for _, a := range arrivals {
			counts[a.Class]++
		}
		for _, pol := range policies {
			w := newWaiting(counts)
			var flat []Queued
			for pushed := 0; pushed < len(arrivals) || len(flat) > 0; {
				if pushed < len(arrivals) && (len(flat) == 0 || rng.Intn(2) == 0) {
					flat = append(flat, arrivals[pushed])
					w.push(arrivals[pushed])
					pushed++
				} else {
					view := PackageView{Class: rng.Intn(7) - 1, Run: rng.Intn(10)}
					k := pol.Pick(flat, view)
					heads := queueHeads(flat)
					if !slices.Contains(heads, flat[k]) {
						t.Fatalf("case %d: %s picked %+v, not the head of its class (queue %+v)", i, pol.Name(), flat[k], flat)
					}
					if h := pol.Pick(w.heads, view); w.heads[h] != flat[k] {
						t.Fatalf("case %d: %s over heads picked %+v, over the queue %+v (queue %+v)", i, pol.Name(), w.heads[h], flat[k], flat)
					}
					w.pop(slices.Index(w.heads, flat[k]))
					flat = slices.Delete(flat, k, k+1)
				}
				if !slices.Equal(w.heads, queueHeads(flat)) || w.depth != len(flat) {
					t.Fatalf("case %d: heads %+v (depth %d), want %+v (queue %+v)", i, w.heads, w.depth, queueHeads(flat), flat)
				}
				for c, want := range splitByClass(flat, len(counts)) {
					if !slices.Equal(w.class[c], want) {
						t.Fatalf("case %d: class %d waiting %+v, want %+v (queue %+v)", i, c, w.class[c], want, flat)
					}
				}
			}
		}
	}
}
