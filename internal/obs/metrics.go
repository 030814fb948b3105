package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the metrics core: a registry of counters, gauges and
// fixed-bucket histograms built for a serve hot path that records
// millions of observations per second. Writable instruments keep their
// state in per-shard blocks spaced at least two cache lines apart (two
// words >= 128 bytes apart can never share a coherence line or an
// adjacent-line prefetch pair, so one shard's increment never bounces
// another shard's line). A writer
// picks its shard through a sync.Pool slot — pools keep a per-P private
// item, so a goroutine running on the same P keeps hitting the same
// core-local block — and reads merge every block. Recording is
// allocation-free (asserted by TestMetricRecordingZeroAllocs and the
// parallel benchmarks).

// cacheLine is the assumed coherence-granule size; shard strides are
// padded to two lines so the adjacent-line prefetcher cannot couple
// neighboring shards either.
const cacheLine = 64

// shardWords is one shard stride quantum in 8-byte words.
const shardWords = 2 * cacheLine / 8

// slot is a pooled shard index. The pool hands each P its most
// recently used slot, giving writers core-local shard affinity without
// any runtime hooks.
type slot struct{ idx uint32 }

// Registry owns a process's instruments and renders them in the
// Prometheus text exposition format. Instrument lookup/creation takes
// the registry mutex; recording on an instrument never does.
type Registry struct {
	shards int // power of two, fixed at construction
	pool   sync.Pool
	seq    atomic.Uint32

	mu    sync.Mutex
	byKey map[string]*instrument
	fams  map[string]*family
	order []*family
}

// family groups every instrument sharing one metric name: HELP/TYPE
// are emitted once, the children (one per label set) consecutively.
type family struct {
	name, help string
	kind       kind
	buckets    []float64 // histogram families only
	children   []*instrument
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one (name, labels) series of any kind.
type instrument struct {
	labels string // preformatted `a="b",c="d"` (no braces), "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// NewRegistry builds an empty registry with a shard fan-out derived
// from GOMAXPROCS (next power of two, floored at 4, capped at 64 —
// beyond the core count extra shards only cost merge work).
func NewRegistry() *Registry {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	r := &Registry{
		shards: shards,
		byKey:  make(map[string]*instrument),
		fams:   make(map[string]*family),
	}
	r.pool.New = func() any {
		return &slot{idx: r.seq.Add(1)}
	}
	return r
}

// DefLatencyBuckets is the default request-latency histogram layout:
// exponential-ish bounds from 100 µs to 60 s, wide enough for both a
// sub-millisecond cache hit and a multi-minute cold 6x6 search.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// formatLabels renders variadic "k", "v" pairs into the canonical
// label string. Pairs are emitted in the given order; callers must use
// one consistent order per metric name or the series will not alias.
func formatLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want k, v pairs)", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookup implements get-or-create: one (name, labels) series exists
// once, registering it again returns the same instrument. Kind or
// bucket-layout mismatches are programmer errors and panic.
func (r *Registry) lookup(name, help string, k kind, buckets []float64, labels []string) *instrument {
	if name == "" {
		panic("obs: empty metric name")
	}
	ls := formatLabels(labels)
	key := name + "\x00" + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.byKey[key]; ok {
		f := r.fams[name]
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, k, f.kind))
		}
		return ins
	}
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, buckets: buckets}
		r.fams[name] = f
		r.order = append(r.order, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, k, f.kind))
	}
	ins := &instrument{labels: ls}
	f.children = append(f.children, ins)
	r.byKey[key] = ins
	return ins
}

// ---------------------------------------------------------------------
// Counter

// counterShard is one padded counter block; see the file comment.
type counterShard struct {
	n atomic.Int64
	_ [2*cacheLine - 8]byte
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	reg    *Registry
	shards []counterShard
	mask   uint32
}

// Counter returns (creating on first use) the counter series for
// (name, labels); labels are "k", "v" pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ins := r.lookup(name, help, kindCounter, nil, labels)
	if ins.c == nil {
		ins.c = &Counter{reg: r, shards: make([]counterShard, r.shards), mask: uint32(r.shards - 1)}
	}
	return ins.c
}

// Add increments the counter by d (d must be >= 0 for Prometheus
// semantics; this is not enforced on the hot path).
//
//scar:hotpath
func (c *Counter) Add(d int64) {
	s := c.reg.pool.Get().(*slot) //scar:hotalloc pool.New runs once per P on first use; steady-state Gets return the pooled slot (pinned by TestMetricRecordingZeroAllocs)
	c.shards[s.idx&c.mask].n.Add(d)
	c.reg.pool.Put(s)
}

// Inc adds one.
//
//scar:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value merges every shard.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].n.Load()
	}
	return t
}

// ---------------------------------------------------------------------
// Gauge

// Gauge is a settable float value. Gauges are written at state-change
// rate, not request rate, so a single atomic is enough.
type Gauge struct {
	bits atomic.Uint64
}

// Gauge returns (creating on first use) the gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ins := r.lookup(name, help, kindGauge, nil, labels)
	if ins.g == nil {
		ins.g = &Gauge{}
	}
	return ins.g
}

// Set stores v.
//
//scar:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; gauges are cold, contention is irrelevant).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// CounterFunc registers a counter series whose value is read from fn
// at exposition time — for monotonic totals already maintained
// elsewhere (costdb stats). Re-registering the same series keeps the
// first fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	ins := r.lookup(name, help, kindCounterFunc, nil, labels)
	if ins.fn == nil {
		ins.fn = fn
	}
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	ins := r.lookup(name, help, kindGaugeFunc, nil, labels)
	if ins.fn == nil {
		ins.fn = fn
	}
}

// ---------------------------------------------------------------------
// Histogram

// Histogram is a fixed-bucket sharded histogram. Each shard owns a
// stride of the flat cells array holding its per-bucket counts (the
// last bucket is +Inf) and its sum; strides are padded to whole
// two-line multiples so shards never share a line. The total count is
// not stored: it is the sum of the bucket counts, which keeps an
// Observe at two atomic adds and makes merged snapshots self-
// consistent by construction (count always equals the bucket total).
type Histogram struct {
	reg    *Registry
	bounds []float64       // ascending finite upper bounds
	cells  []atomic.Uint64 // shards * stride
	stride int
	mask   uint32
	sumOff int // per-shard offset of the float64-bits sum cell
}

// Histogram returns (creating on first use) the histogram series with
// the given ascending finite bucket upper bounds. Re-registering the
// same series requires the same buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], 1) {
		panic(fmt.Sprintf("obs: histogram %q: +Inf bucket is implicit, do not pass it", name))
	}
	ins := r.lookup(name, help, kindHistogram, buckets, labels)
	if ins.h == nil {
		f := r.fams[name]
		if len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		for i := range buckets {
			if f.buckets[i] != buckets[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
			}
		}
		nb := len(buckets) + 1 // + the +Inf bucket
		stride := nb + 1       // + the sum cell
		if rem := stride % shardWords; rem != 0 {
			stride += shardWords - rem
		}
		ins.h = &Histogram{
			reg:    r,
			bounds: append([]float64(nil), buckets...),
			cells:  make([]atomic.Uint64, r.shards*stride),
			stride: stride,
			mask:   uint32(r.shards - 1),
			sumOff: nb,
		}
	}
	return ins.h
}

// Observe records v: one add on the bucket cell, one float add on the
// sum cell, both in the writer's own shard. Allocation-free.
//
//scar:hotpath
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s is a binary search (no allocation): the first
	// bound >= v is exactly the Prometheus le-bucket; past the last
	// bound the index lands on the +Inf cell.
	b := sort.SearchFloat64s(h.bounds, v)
	s := h.reg.pool.Get().(*slot) //scar:hotalloc pool.New runs once per P on first use; steady-state Gets return the pooled slot (pinned by TestMetricRecordingZeroAllocs)
	base := int(s.idx&h.mask) * h.stride
	h.cells[base+b].Add(1)
	sum := &h.cells[base+h.sumOff]
	for {
		old := sum.Load()
		if sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.reg.pool.Put(s)
}

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	// Bounds are the finite bucket upper bounds; Counts the per-bucket
	// observation counts with the +Inf bucket appended (len(Bounds)+1).
	Bounds []float64
	Counts []uint64
	// Sum is the sum of observed values.
	Sum float64
}

// Snapshot merges every shard into one view.
func (h *Histogram) Snapshot() HistSnapshot {
	nb := len(h.bounds) + 1
	s := HistSnapshot{Bounds: h.bounds, Counts: make([]uint64, nb)}
	for sh := 0; sh <= int(h.mask); sh++ {
		base := sh * h.stride
		for b := 0; b < nb; b++ {
			s.Counts[b] += h.cells[base+b].Load()
		}
		s.Sum += math.Float64frombits(h.cells[base+h.sumOff].Load())
	}
	return s
}

// Count is the total number of observations in the snapshot.
func (s HistSnapshot) Count() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Merge adds another snapshot of the same bucket layout (panics
// otherwise) — used to aggregate e.g. per-status-class histograms into
// one per-endpoint distribution.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if len(s.Counts) != len(o.Counts) {
		panic("obs: merging snapshots with different bucket layouts")
	}
	m := HistSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts)), Sum: s.Sum + o.Sum}
	for i := range s.Counts {
		m.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return m
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the owning bucket — the Prometheus
// histogram_quantile estimator, accurate to within one bucket width.
// Observations in the +Inf bucket clamp to the last finite bound; an
// empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ---------------------------------------------------------------------
// Exposition

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order, children in registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		children := make([]*instrument, len(f.children))
		copy(children, f.children)
		r.mu.Unlock()
		for _, ins := range children {
			writeChild(&b, f, ins)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeChild(b *strings.Builder, f *family, ins *instrument) {
	switch {
	case ins.c != nil:
		writeSample(b, f.name, "", ins.labels, "", float64(ins.c.Value()))
	case ins.g != nil:
		writeSample(b, f.name, "", ins.labels, "", ins.g.Value())
	case ins.fn != nil:
		writeSample(b, f.name, "", ins.labels, "", ins.fn())
	case ins.h != nil:
		s := ins.h.Snapshot()
		var cum uint64
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatFloat(s.Bounds[i])
			}
			writeSample(b, f.name, "_bucket", ins.labels, `le="`+le+`"`, float64(cum))
		}
		writeSample(b, f.name, "_sum", ins.labels, "", s.Sum)
		writeSample(b, f.name, "_count", ins.labels, "", float64(cum))
	}
}

// writeSample emits one `name[suffix]{labels[,extra]} value` line.
func writeSample(b *strings.Builder, name, suffix, labels, extra string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
