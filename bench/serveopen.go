package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/obs"
	"example.com/scar/internal/serve"
)

const (
	// serveRate is the open loop's Poisson arrival rate, sized to keep the
	// daemon near 30% CPU on a 2-core host.
	serveRate = 400.0
	// latencyLimit is the due-to-response limit goodput counts against.
	latencyLimit = 100 * time.Millisecond
	// serveRequestTimeout is scarserve's default -request-timeout.
	serveRequestTimeout = 5 * time.Minute
)

// reqKind is one class of the serve-open traffic mix.
type reqKind int

const (
	kindHit  reqKind = iota // /schedule on a resident key
	kindMiss                // /schedule on a never-seen custom workload
	kindSim                 // /simulate on resident classes
	kindBad                 // malformed /schedule, answered 400
)

func (k reqKind) String() string {
	return [...]string{"hit", "miss", "simulate", "malformed"}[k]
}

// mixPer100 is the traffic mix: every block of 100 consecutive requests
// holds exactly these counts, in an order drawn from the seed, so any
// stretch of the run sees the mix to within one block.
var mixPer100 = [...]int{kindHit: 95, kindMiss: 2, kindSim: 2, kindBad: 1}

// residentKey is one of the schedules populated before the run.
type residentKey struct {
	scenario  int
	pattern   string
	objective string
}

// residentKeys are scenarios 1-10 x three 3x3 patterns x {edp, latency};
// a small run keeps the four keys /simulate and a couple of hits need.
func residentKeys(small bool) []residentKey {
	nums, pats := scenarioNumbers(false), []string{"het-sides", "het-cb", "simba-nvd"}
	if small {
		nums, pats = []int{6, 7, 8, 10}, pats[:1]
	}
	var out []residentKey
	for _, n := range nums {
		for _, p := range pats {
			for _, o := range []string{"edp", "latency"} {
				out = append(out, residentKey{n, p, o})
			}
		}
	}
	return out
}

func (k residentKey) body() []byte {
	return fmt.Appendf(nil, `{"scenario":%d,"pattern":%q,"objective":%q}`, k.scenario, k.pattern, k.objective)
}

// chipletFor is the chiplet the serve layer infers for a built-in
// scenario: datacenter for scenarios 1-5, edge for 6-10.
func chipletFor(scenario int) maestro.Chiplet {
	if scenario >= 6 {
		return maestro.DefaultEdgeChiplet()
	}
	return maestro.DefaultDatacenterChiplet()
}

// planned is one request of the open loop's schedule.
type planned struct {
	due  time.Duration // since the loop's start
	kind reqKind
	path string
	body []byte
	key  int // resident key index of a hit
}

// planServeOpen draws the open loop's whole schedule from the seed before
// anything runs: Poisson arrivals at serveRate until seconds, each
// assigned its kind by the per-100 mix and its body by the same stream;
// misses walk the miss pool from a seeded start.
func planServeOpen(seed int64, seconds float64, keys []residentKey) []planned {
	rng := rand.New(rand.NewSource(seed))
	pool := missPool()
	nextMiss := rng.Intn(len(pool))
	var out []planned
	var block []reqKind
	for t := rng.ExpFloat64() / serveRate; t < seconds; t += rng.ExpFloat64() / serveRate {
		if len(block) == 0 {
			for k, n := range mixPer100 {
				for i := 0; i < n; i++ {
					block = append(block, reqKind(k))
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		p := planned{due: time.Duration(t * float64(time.Second)), kind: block[0], path: "/schedule", key: -1}
		block = block[1:]
		switch p.kind {
		case kindHit:
			p.key = rng.Intn(len(keys))
			p.body = keys[p.key].body()
		case kindMiss:
			p.body = missBody(seed, len(out), pool[nextMiss%len(pool)])
			nextMiss++
		case kindSim:
			p.path = "/simulate"
			p.body = fmt.Appendf(nil, `{"classes":[`+
				`{"scenario":6,"pattern":"het-sides","objective":"edp","rate_per_sec":0.5,"seed":%d},`+
				`{"scenario":7,"pattern":"het-sides","objective":"edp","rate_per_sec":0.5,"seed":%d}],`+
				`"packages":2,"policy":"switch-aware","horizon_sec":600}`, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
		case kindBad:
			p.body = [][]byte{
				[]byte(`{"scenario":3,"width":-3}`),
				[]byte(`{"scenario":2,"pattern":"het-sides","unknown_field":1}`),
				[]byte(`{"scenario":4,"objective":`),
			}[rng.Intn(3)]
		}
		out = append(out, p)
	}
	return out
}

// missPoolSize is the number of custom workloads misses cycle through.
const missPoolSize = 48

// missPool is the catalogue of custom workloads the misses cycle through:
// two or three zoo models at batch 1, 2 or 4, on a random 3x3 pattern and
// profile. It is the same for every seed, so the cost of a run's misses
// does not depend on which combinations its seed happened to draw; each
// use gets a name of its own (missBody), so its cache key is still new.
func missPool() [][]byte {
	rng := rand.New(rand.NewSource(1))
	zoo := models.Names()
	pool := make([][]byte, missPoolSize)
	for i := range pool {
		var ms []string
		for _, zi := range rng.Perm(len(zoo))[:2+rng.Intn(2)] {
			ms = append(ms, fmt.Sprintf(`{"zoo":%q,"batch":%d}`, zoo[zi], []int{1, 2, 4}[rng.Intn(3)]))
		}
		pattern := []string{"het-sides", "het-cb", "simba-nvd", "simba-shi"}[rng.Intn(4)]
		profile := []string{"datacenter", "edge"}[rng.Intn(2)]
		objective := []string{"edp", "latency"}[rng.Intn(2)]
		pool[i] = fmt.Appendf(nil, `"models":[%s]},"pattern":%q,"profile":%q,"objective":%q}`,
			strings.Join(ms, ","), pattern, profile, objective)
	}
	return pool
}

// missBody names pool entry tail after the seed and request index, so no
// two requests of any run share a cache key.
func missBody(seed int64, i int, tail []byte) []byte {
	return append(fmt.Appendf(nil, `{"workload_json":{"name":"miss-%d-%d",`, seed, i), tail...)
}

// scheduleReply is the part of a /schedule answer the checks read.
type scheduleReply struct {
	Key       string          `json:"key"`
	Cached    bool            `json:"cached"`
	Partial   bool            `json:"partial"`
	Metrics   json.RawMessage `json:"metrics"`
	ElapsedMs float64         `json:"elapsed_ms"`
}

// daemon is one set-up of serve-open: an in-process service with
// production defaults behind net/http on 127.0.0.1, its resident keys
// populated.
type daemon struct {
	svc      *serve.Service
	url      string
	resident []scheduleReply
	srv      *http.Server
	served   chan error
}

// startDaemon starts the service and populates every resident key
// through HTTP, checking each answer.
func startDaemon(ctx context.Context, keys []residentKey, opts core.Options, o *obs.Obs) (*daemon, error) {
	svc := serve.NewWithConfig(costdb.New(maestro.DefaultParams()), opts, serve.Config{Obs: o})
	svc.SetRequestTimeout(serveRequestTimeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		svc:    svc,
		url:    "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	client := newClient()
	defer client.CloseIdleConnections()
	for _, k := range keys {
		status, body, err := post(ctx, client, d.url+"/schedule", k.body(), nil)
		var rep scheduleReply
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &rep)
		} else if err == nil {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil && (rep.Cached || rep.Partial) {
			err = fmt.Errorf("populate answer cached=%t partial=%t", rep.Cached, rep.Partial)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("populate %s: %w", k.body(), err)
		}
		d.resident = append(d.resident, rep)
	}
	return d, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
}

// newClient is one sender's client: one keep-alive connection, which the
// sender owns.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole answer.
func post(ctx context.Context, c *http.Client, url string, body []byte, ct *httptrace.ClientTrace) (int, []byte, error) {
	if ct != nil {
		ctx = httptrace.WithClientTrace(ctx, ct)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sent is what happened to one planned request.
type sent struct {
	lag      time.Duration // generator lateness against the due time
	latency  time.Duration // due time to response read
	connWait time.Duration // due time to connection acquired (traced only)
	server   time.Duration // the daemon's own elapsed_ms (/schedule only)
	ok       bool
	traced   bool
	why      string
}

// good reports whether a request counts toward goodput: a correct answer
// within the latency limit. A failed request never counts, however fast.
func (s sent) good() bool { return s.ok && s.latency <= latencyLimit }

// runServeOpen drives the daemon with the planned open loop. The
// generator sleeps until each request is due and hands it to at most
// nproc senders, each owning one connection; a request is timed from its
// due time, so a stall also charges the requests that queued behind it.
func runServeOpen(ctx context.Context, r *run) error {
	keys := residentKeys(r.cfg.small)
	opts := core.DefaultOptions()
	if r.cfg.small {
		opts = core.FastOptions()
	}
	plan := planServeOpen(r.cfg.seed, r.cfg.seconds, keys)
	d, release, err := setUp(r, func() (*daemon, func(), error) {
		var o *obs.Obs
		if r.rec != nil {
			o = obs.New(obs.Config{TraceBuffer: len(keys) + len(plan) + 16})
		}
		d, err := startDaemon(ctx, keys, opts, o)
		if err != nil {
			return nil, func() {}, err
		}
		return d, d.stop, nil
	})
	if err != nil {
		return err
	}
	defer release()

	before := d.svc.Stats()
	out := make([]sent, len(plan))
	queue := make(chan int, len(plan)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	r.beginMeasure()
	start := time.Now().Add(20 * time.Millisecond)
	senders := runtime.NumCPU()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := range queue {
				d.send(ctx, r, client, plan[i], i, start, &out[i])
			}
		}()
	}
	for i := range plan {
		due := start.Add(plan[i].due)
		time.Sleep(time.Until(due))
		out[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	r.measured = time.Since(start)
	r.endMeasure()
	after := d.svc.Stats()

	var lags, missLat, connWait []float64
	for i, s := range out {
		r.attempted++
		lags = append(lags, ms(s.lag))
		if s.traced {
			r.tracedLat = append(r.tracedLat, ms(s.latency))
			connWait = append(connWait, ms(s.connWait))
		} else {
			r.lat = append(r.lat, ms(s.latency))
		}
		if !s.ok {
			r.opFailed("request %d (%s): %s", i, plan[i].kind, s.why)
			continue
		}
		if s.good() {
			r.good++
		}
		if plan[i].kind == kindMiss {
			missLat = append(missLat, ms(s.latency))
		}
	}
	r.goodSpan = r.measured
	r.passes = 1
	// The tail is the misses' own latency, not a percentile of every
	// request: up to half of the slowest 1% are hits that waited at this
	// client for a connection a search held, or for the generator, which
	// shares the two Ps with the searches. How many there are depends on
	// how the misses happened to overlap, and the p99 of runs of the same
	// code spread wider than any bound worth having, so it is only noted.
	r.tail = mean(missLat)
	r.tailNote = fmt.Sprintf("the mean due-to-response latency of the %d misses (p99 of all requests %.4g ms)",
		len(missLat), quantile(sortedCopy(r.lat), 0.99))
	dg := newDigester()
	for _, rep := range d.resident {
		dg.str(rep.Key)
		dg.bytes(rep.Metrics)
	}
	r.digest = dg.sum()
	lagP99 := quantile(sortedCopy(lags), 0.99)
	r.notes = append(r.notes, fmt.Sprintf("%d requests at %.0f/s by %d senders; generator lateness p99 %.3f ms", len(plan), serveRate, senders, lagP99))
	if lagP99 >= 1 {
		r.notes = append(r.notes, "generator lateness p99 is 1 ms or more: the offered load ran behind its schedule")
	}
	if r.rec == nil {
		return nil
	}

	r.layers["loadgen.send_lag_ms_p99"] = lagP99
	r.layers["loadgen.conn_wait_ms_p99"] = quantile(sortedCopy(connWait), 0.99)
	r.layers["serve.miss_p50_ms"] = quantile(sortedCopy(missLat), 0.5)
	spans := r.rec.snapshot()
	self := selfTimes(spans)
	var overhead []float64 // /schedule round trips, whose answers carry elapsed_ms
	for _, s := range spans {
		if s.layer == "http" && (s.name == kindHit.String() || s.name == kindMiss.String()) {
			overhead = append(overhead, float64(self[s.id])/float64(time.Microsecond))
		}
	}
	r.layers["http.overhead_us_p50"] = quantile(sortedCopy(overhead), 0.5)
	requests := float64(after.Requests - before.Requests)
	r.layers["serve.requests"] = requests
	r.layers["serve.cache_hits"] = float64(after.CacheHits - before.CacheHits)
	if requests > 0 {
		r.layers["serve.hit_ratio"] = r.layers["serve.cache_hits"] / requests
	}
	r.layers["serve.searches"] = float64(after.ScheduleCalls - before.ScheduleCalls)
	r.layers["serve.simulations"] = float64(after.Simulations - before.Simulations)
	r.layers["costdb.misses"] = float64(after.CostMisses - before.CostMisses)
	r.layers["costdb.entries"] = float64(after.CostEntries)
	serverPhases(r, d.svc.Obs().Tracer, len(keys))
	var pairs []*pairing
	for _, k := range keys {
		sc, err := models.ScenarioByNumber(k.scenario)
		if err != nil {
			return err
		}
		m, err := mcm.ByName(k.pattern, 3, 3, chipletFor(k.scenario))
		if err != nil {
			return err
		}
		pairs = append(pairs, &pairing{sc: &sc, m: m})
	}
	r.layers["costdb.hit_ns"], r.layers["maestro.analyze_us"] = costLayerProbe(d.svc.DB(), pairs)
	return nil
}

// send issues one planned request on the sender's connection and checks
// the answer. Traced requests (every other one in a traced run) also
// record their connection wait and spans.
func (d *daemon) send(ctx context.Context, r *run, c *http.Client, p planned, i int, start time.Time, s *sent) {
	due := start.Add(p.due)
	s.traced = r.rec != nil && i%2 == 0
	var ct *httptrace.ClientTrace
	if s.traced {
		ct = &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { s.connWait = time.Since(due) }}
	}
	sentAt := time.Now()
	status, body, err := post(ctx, c, d.url+p.path, p.body, ct)
	done := time.Now()
	s.latency = done.Sub(due)
	if err != nil {
		s.why = err.Error()
		return
	}
	s.why = d.check(p, status, body, s)
	s.ok = s.why == ""
	if s.traced {
		root := r.rec.add(0, i, "loadgen", "request", due, done)
		hop := r.rec.add(root, i, "http", p.kind.String(), sentAt, done)
		if s.server > 0 {
			r.rec.add(hop, i, "serve", p.kind.String(), done.Add(-s.server), done)
		}
	}
}

// check validates one answer against its kind and returns why it failed
// ("" when it passed).
func (d *daemon) check(p planned, status int, body []byte, s *sent) string {
	want := http.StatusOK
	if p.kind == kindBad {
		want = http.StatusBadRequest
	}
	if status != want {
		return fmt.Sprintf("status %d, want %d: %.200s", status, want, body)
	}
	switch p.kind {
	case kindHit, kindMiss:
		var rep scheduleReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return err.Error()
		}
		s.server = time.Duration(rep.ElapsedMs * float64(time.Millisecond))
		if rep.Partial {
			return "partial result"
		}
		if p.kind == kindMiss {
			if rep.Cached {
				return "a never-seen key was answered from the cache"
			}
			return ""
		}
		res := d.resident[p.key]
		if !rep.Cached || rep.Key != res.Key || !bytes.Equal(rep.Metrics, res.Metrics) {
			return fmt.Sprintf("hit on %s not answered from the cache with the populated schedule (cached=%t)", res.Key, rep.Cached)
		}
	case kindSim:
		var rep struct {
			Requests int `json:"requests"`
			Offered  int `json:"offered_requests"`
			Shed     int `json:"shed_requests"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return err.Error()
		}
		if rep.Offered != rep.Requests+rep.Shed || rep.Offered == 0 {
			return fmt.Sprintf("offered %d != requests %d + shed %d", rep.Offered, rep.Requests, rep.Shed)
		}
	case kindBad:
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			return err.Error()
		}
		if e.Error == "" || e.Status != http.StatusBadRequest {
			return fmt.Sprintf("400 body is not the {error,status} shape: %.200s", body)
		}
	}
	return ""
}

// serverPhases reads the daemon's own request tracer: the phases it
// records per request, for the requests after the first skip (the
// populate requests).
func serverPhases(r *run, tr *obs.Tracer, skip int) {
	type row struct {
		endpoint string
		whole    float64
		phases   map[string][]float64
	}
	rows := map[int]*row{}
	for _, s := range tr.Timeline().Spans {
		if s.Chiplet < skip {
			continue
		}
		rw := rows[s.Chiplet]
		if rw == nil {
			rw = &row{phases: map[string][]float64{}}
			rows[s.Chiplet] = rw
		}
		dur := (s.EndSec - s.StartSec) * 1e3
		// A request's own span is labelled "<endpoint> r<id> [<status>]".
		if ep, _, ok := strings.Cut(s.Label, " r"); ok && (ep == "schedule" || ep == "simulate") {
			rw.endpoint, rw.whole = ep, dur
			continue
		}
		rw.phases[s.Label] = append(rw.phases[s.Label], dur)
	}
	var lookup, search, whole, unphased, schedClasses, simulate []float64
	var await, admission float64
	for _, rw := range rows {
		switch rw.endpoint {
		case "schedule":
			ph := rw.phases
			lookup = append(lookup, ph["cache lookup"]...)
			search = append(search, ph["search"]...)
			await += sum(ph["await inflight"])
			admission += sum(ph["admission wait"])
			whole = append(whole, rw.whole)
			covered := sum(ph["cache lookup"]) + sum(ph["await inflight"]) + sum(ph["admission wait"]) + sum(ph["search"])
			unphased = append(unphased, (rw.whole-covered)*1e3)
		case "simulate":
			schedClasses = append(schedClasses, rw.phases["schedule classes"]...)
			simulate = append(simulate, rw.phases["simulate"]...)
		}
	}
	r.layers["serve.cache_lookup_us_p50"] = quantile(sortedCopy(lookup), 0.5) * 1e3
	r.layers["serve.await_inflight_ms_sum"] = await
	r.layers["serve.admission_wait_ms_sum"] = admission
	r.layers["serve.search_ms_p50"] = quantile(sortedCopy(search), 0.5)
	r.layers["serve.sim_schedule_classes_ms_p50"] = quantile(sortedCopy(schedClasses), 0.5)
	r.layers["serve.sim_simulate_ms_p50"] = quantile(sortedCopy(simulate), 0.5)
	r.layers["serve.unphased_us_p50"] = quantile(sortedCopy(unphased), 0.5)
	r.layers["serve.endpoint_p99_ms"] = quantile(sortedCopy(whole), 0.99)
}
