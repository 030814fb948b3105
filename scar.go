// Package scar is a Go implementation of SCAR — the scheduler for
// multi-model AI workloads on heterogeneous multi-chiplet module (MCM)
// accelerators from Odema et al., MICRO 2024 — together with every
// substrate the paper depends on: a MAESTRO-style analytical cost model
// for NVDLA-like and ShiDianNao-like dataflows, the Simba-style MCM
// package model with the Figure 6 chiplet organizations, a 13-network
// model zoo covering the paper's MLPerf and XRBench scenarios, the
// Standalone and NN-baton baselines, and the full experiment harness.
//
// Quick start — the context-first Request/Session surface:
//
//	sched := scar.NewScheduler(scar.DefaultOptions())
//	sc, _ := scar.ScenarioByNumber(4)               // Table III Scenario 4
//	pkg, _ := scar.MCMByName("het-sides", 3, 3, scar.DatacenterChiplet())
//	res, _ := sched.Schedule(ctx, &scar.Request{
//		Scenario: &sc, MCM: pkg, Objective: scar.EDPObjective(),
//	})
//	fmt.Println(scar.RenderSchedule(&sc, pkg, res.Schedule, res.Metrics))
//
// Schedule honors ctx cancellation and deadlines with anytime semantics:
// an interrupted search returns the best incumbent found so far with
// Result.Partial set. For repeated work on one (scenario, MCM) pair,
// NewSession compiles the evaluation state once and unifies evaluation,
// tracing, link-load inspection and the paper baselines behind a single
// handle (see Session).
//
// Beyond the paper's one-shot search, the package serves schedules
// online: Service (cmd/scarserve) answers concurrent scheduling requests
// through a singleflight-deduplicated cache, and Simulate drives a fleet
// of package replicas (SimConfig.Packages) through time under Poisson or
// trace-driven request load, scoring XRBench frame-rate deadlines under
// a pluggable dispatch policy — FIFOPolicy, EDFPolicy or
// SwitchAwarePolicy (see the README's Serving section and
// examples/fleet).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured mapping of every table and figure.
package scar

import (
	"context"
	"fmt"
	"io"

	"example.com/scar/internal/baselines"
	"example.com/scar/internal/config"
	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/obs"
	"example.com/scar/internal/online"
	"example.com/scar/internal/serve"
	"example.com/scar/internal/trace"
	"example.com/scar/internal/workload"
)

// Re-exported types: the library's public vocabulary.
type (
	// Layer is one operator of a model (7-D conv nest or GEMM view).
	Layer = workload.Layer
	// Model is an ordered layer sequence with a batch size.
	Model = workload.Model
	// Scenario is a multi-model workload (Definition 1 of the paper).
	Scenario = workload.Scenario
	// LayerRef identifies a layer by (model, index).
	LayerRef = workload.LayerRef
	// MCM is the multi-chip-module accelerator package (Definition 3).
	MCM = mcm.MCM
	// Chiplet is one accelerator die (Definition 2).
	Chiplet = mcm.Chiplet
	// ChipletSpec carries PE count, L2 size, bandwidth and clock.
	ChipletSpec = maestro.Chiplet
	// Dataflow is an accelerator dataflow descriptor.
	Dataflow = dataflow.Dataflow
	// Schedule is a schedule instance (Definition 9).
	Schedule = eval.Schedule
	// TimeWindow is one execution window (Definition 4).
	TimeWindow = eval.TimeWindow
	// Segment is a layer run mapped to one chiplet (Definition 5).
	Segment = eval.Segment
	// Metrics is a schedule evaluation (latency, energy, EDP).
	Metrics = eval.Metrics
	// WindowMetrics is the per-window breakdown.
	WindowMetrics = eval.WindowMetrics
	// Options are the scheduler hyperparameters.
	Options = core.Options
	// Objective is an optimization metric (Definition 10).
	Objective = core.Objective
	// Request bundles one scheduling invocation — scenario, MCM,
	// objective and per-request option overrides (workers, nsplits,
	// seed, search mode, progress callback) — the single argument of
	// Scheduler.Schedule.
	Request = core.Request
	// ProgressEvent is one anytime-progress snapshot of a running
	// search (candidates explored, cache hit rate, incumbent score),
	// delivered through Options.Progress or Request.Progress.
	ProgressEvent = core.ProgressEvent
	// Result is the scheduler output. Result.Partial marks an anytime
	// result cut short by context cancellation.
	Result = core.Result
	// CostModelParams are the analytical cost model's calibration
	// constants.
	CostModelParams = maestro.Params
	// LayerCost is the intra-chiplet cost-model output for one layer
	// (latency, energy, utilization, traffic, capacity spill).
	LayerCost = maestro.Result
	// Link is one directed NoP link between adjacent chiplets.
	Link = mcm.Link
	// Timeline is an evaluated schedule trace (Gantt rendering, Chrome
	// trace export).
	Timeline = trace.Timeline
	// Span is one chiplet-occupancy interval of a Timeline.
	Span = trace.Span
)

// Online serving: the discrete-event request simulator (internal/online)
// and the concurrent scheduling service (internal/serve) behind the
// scarserve daemon.
type (
	// SimClass is one request type of a simulation: a scheduled
	// scenario with deadlines, switch cost and an arrival process.
	SimClass = online.Class
	// SimConfig drives one simulation run.
	SimConfig = online.Config
	// SimReport is the simulation output: SLA attainment, latency
	// percentiles, queue depth, utilization, energy.
	SimReport = online.Report
	// SimOutcome is one simulated request's life cycle.
	SimOutcome = online.RequestOutcome
	// Arrivals generates a deterministic arrival-time sequence; its
	// Times(ctx, horizonSec, max) polls ctx and returns an error
	// wrapping ctx.Err() once it is cancelled.
	Arrivals = online.Arrivals
	// PoissonArrivals is a seeded Poisson arrival process.
	PoissonArrivals = online.Poisson
	// TraceArrivals replays explicit arrival timestamps.
	TraceArrivals = online.Trace
	// PeriodicArrivals emits one request per fixed period (the XRBench
	// frame clock).
	PeriodicArrivals = online.Periodic
	// SimPolicy picks which waiting request a freed package serves next
	// (SimConfig.Policy). Pick sees one head per class with requests
	// waiting (its earliest arrival), in arrival-merge order, not the
	// whole queue. Implementations must be deterministic pure functions
	// so simulations stay bit-identical under concurrency.
	SimPolicy = online.Policy
	// SimQueued is the policy-visible view of one waiting request.
	SimQueued = online.Queued
	// SimPackageView is the policy-visible state of the dispatching
	// package replica (index, configured class, same-class run length).
	SimPackageView = online.PackageView
	// FIFOPolicy serves strictly in arrival order (the default).
	FIFOPolicy = online.FIFO
	// EDFPolicy serves the earliest effective deadline first.
	EDFPolicy = online.EDF
	// SwitchAwarePolicy amortizes schedule switches by serving
	// same-class runs up to a hysteresis bound (MaxRun).
	SwitchAwarePolicy = online.SwitchAware
	// SimPackageReport is one replica's aggregate in a SimReport.
	SimPackageReport = online.PackageReport
	// SimAdmission is the simulator's admission control: a hard queue
	// bound, low/high watermark backpressure with hysteresis and a
	// pluggable load shedder (SimConfig.Admission; nil admits all).
	SimAdmission = online.Admission
	// SimShedder decides whether an arrival is shed from the per-class
	// waiting slices, which it must not modify; implementations must be
	// deterministic pure functions (see SimConfig.Admission).
	SimShedder = online.Shedder
	// DropTailShedder sheds every arrival while watermark backpressure
	// is engaged.
	DropTailShedder = online.DropTail
	// DeadlineAwareShedder sheds the arrivals whose queue-implied start
	// would already bust their deadline, protecting the accepted
	// requests' SLA under overload.
	DeadlineAwareShedder = online.DeadlineAware
	// SimShedOutcome is one shed request's record in a SimReport.
	SimShedOutcome = online.ShedOutcome
	// SimAdmissionView is the shedder-visible simulator state.
	SimAdmissionView = online.AdmissionView
	// Service is the concurrent scheduling service: a singleflight-
	// deduplicated schedule cache over a shared warm cost database,
	// with an http.Handler exposing /schedule, /simulate and /stats.
	Service = serve.Service
	// ServeRequest identifies one scheduling problem for the service.
	ServeRequest = serve.Request
	// ServeStats is a service counter snapshot.
	ServeStats = serve.Stats
	// ServeConfig tunes the service's cache fabric, overload protection
	// and observability; the zero value is the production default.
	ServeConfig = serve.Config
	// ServeEndpointStats is one HTTP endpoint's latency view in
	// ServeStats (requests plus interpolated p50/p95/p99).
	ServeEndpointStats = serve.EndpointStats
	// Obs is the observability bundle a service records into: a sharded
	// metrics registry (Prometheus text exposition), a bounded
	// per-request span tracer (Chrome trace export) and a structured
	// logger. One Obs belongs to one Service.
	Obs = obs.Obs
	// ObsConfig configures an observability bundle.
	ObsConfig = obs.Config
)

// Online serving constructors.
var (
	// Simulate runs the discrete-event serving simulator; results are
	// bit-identical for a fixed configuration.
	Simulate = online.Simulate
	// DeriveDeadlines maps a scenario's models to deadlines: XRBench
	// frame budgets where frame rates exist, slack-scaled scheduled
	// latencies elsewhere.
	DeriveDeadlines = online.DeriveDeadlines
	// NewTrace builds a validated trace-driven arrival process
	// (non-ascending timestamps are rejected at construction).
	NewTrace = online.NewTrace
	// PolicyByName resolves the dispatch-policy wire vocabulary:
	// "fifo", "edf", "switch-aware" (the /simulate policy field).
	PolicyByName = online.PolicyByName
	// PolicyNames lists the dispatch-policy wire vocabulary.
	PolicyNames = online.PolicyNames
	// ShedderByName resolves the shedding-policy wire vocabulary:
	// "drop-tail", "deadline-aware" (the /simulate shedder field).
	ShedderByName = online.ShedderByName
	// ShedderNames lists the shedding-policy wire vocabulary.
	ShedderNames = online.ShedderNames
	// NewService builds a scheduling service with a fresh cost
	// database; see Service.
	NewService = serve.New
	// NewObs builds an observability bundle (metrics registry, request
	// tracer, structured logger) for ServeConfig.Obs; the zero ObsConfig
	// enables metrics and tracing and discards logs.
	NewObs = obs.New
	// NewObsLogger builds a structured (slog) logger at a named level —
	// "debug", "info", "warn" or "error" — for ObsConfig.Log.
	NewObsLogger = obs.NewLogger
	// ParseChromeTrace reconstructs a Timeline from Chrome trace-event
	// JSON (the inverse of Timeline.ChromeTrace; also the format the
	// service's GET /trace endpoint serves).
	ParseChromeTrace = trace.ParseChromeTrace
)

// NewServiceWithConfig builds a scheduling service with a fresh cost
// database and an explicit serve configuration — cache fabric, overload
// protection, observability (ServeConfig.Obs, ServeConfig.
// ExposeMetrics).
func NewServiceWithConfig(opts Options, cfg ServeConfig) *Service {
	return serve.NewWithConfig(costdb.New(maestro.DefaultParams()), opts, cfg)
}

// Serve-layer overload protection (see Service and cmd/scarserve): the
// daemon sheds work with ErrServeSaturated (HTTP 429 + Retry-After)
// when its concurrent-search limit is held past the admission wait,
// and with ErrServeDraining (HTTP 503) after Service.BeginDrain.
var (
	ErrServeSaturated = serve.ErrSaturated
	ErrServeDraining  = serve.ErrDraining
)

// ServeFailPoints is deterministic fault injection for serve-layer
// chaos tests (serve.Config.FailPoints).
type ServeFailPoints = serve.FailPoints

// Layer constructors.
var (
	// Conv builds a dense convolution (input dims, square kernel).
	Conv = workload.Conv
	// DWConv builds a depthwise convolution.
	DWConv = workload.DWConv
	// GEMM builds a matrix multiply m x k -> m x n.
	GEMM = workload.GEMM
	// Pool builds a pooling layer.
	Pool = workload.Pool
	// Eltwise builds an element-wise layer.
	Eltwise = workload.Eltwise
	// Embedding builds a table-lookup layer.
	Embedding = workload.Embedding
	// NewModel builds a model from layers.
	NewModel = workload.NewModel
	// NewScenario builds a multi-model scenario.
	NewScenario = workload.NewScenario
)

// Objectives (the paper's Latency / Energy / EDP searches).
var (
	LatencyObjective = core.LatencyObjective
	EnergyObjective  = core.EnergyObjective
	EDPObjective     = core.EDPObjective
	CustomObjective  = core.CustomObjective
	ObjectiveByName  = core.ObjectiveByName
	// LatencyBoundedEDP builds the Section VI score: EDP, invalid above
	// a latency bound. Wrap it with CustomObjective.
	LatencyBoundedEDP = eval.LatencyBoundedEDP
	// PerModelLatencyBoundedEDP builds the Section VI per-model-target
	// score: EDP, invalid when a bounded model finishes late. The
	// constraint is enforced when schedule candidates are selected.
	PerModelLatencyBoundedEDP = eval.PerModelLatencyBoundedEDP
)

// Options presets.
var (
	// DefaultOptions is the paper-default configuration (nsplits=4,
	// brute-force tree search).
	DefaultOptions = core.DefaultOptions
	// FastOptions trades search quality for speed.
	FastOptions = core.FastOptions
)

// Search modes.
const (
	SearchBruteForce   = core.SearchBruteForce
	SearchEvolutionary = core.SearchEvolutionary
)

// Chiplet hardware profiles (Section V-A).
var (
	// DatacenterChiplet is the 4096-PE, 10 MB configuration.
	DatacenterChiplet = maestro.DefaultDatacenterChiplet
	// EdgeChiplet is the 256-PE AR/VR configuration.
	EdgeChiplet = maestro.DefaultEdgeChiplet
)

// Dataflows.
var (
	NVDLA      = dataflow.NVDLA
	ShiDianNao = dataflow.ShiDianNao
)

// MCMByName builds one of the Figure 6 package organizations:
// simba-shi, simba-nvd, het-cb, het-sides, simba-t-shi, simba-t-nvd,
// het-t, het-cross, motivational-2x2.
func MCMByName(pattern string, w, h int, spec ChipletSpec) (*MCM, error) {
	return mcm.ByName(pattern, w, h, spec)
}

// MCMPatterns lists the recognized package pattern names.
func MCMPatterns() []string { return mcm.PatternNames() }

// NewCustomMCM builds a package with an arbitrary NoP topology: explicit
// per-chiplet dataflows (row-major), an undirected link list, and the
// chiplet IDs carrying off-chip interfaces. SCAR schedules it unchanged —
// the scheduler consumes only adjacency (the paper's Section V-E
// generalization claim).
func NewCustomMCM(name string, w, h int, dataflows []Dataflow, links [][2]int, memIF []int, spec ChipletSpec) (*MCM, error) {
	return mcm.NewCustom(name, w, h, dataflows, links, memIF, spec)
}

// ModelByName builds a zoo model: resnet50, bert-large, bert-base,
// gpt-l, unet, googlenet, d2go, planercnn, midas, emformer, hrvit,
// handsp, eyecod, sp2dense.
func ModelByName(name string, batch int) (Model, error) {
	return models.ByName(name, batch)
}

// ModelNames lists the zoo.
func ModelNames() []string { return models.Names() }

// ScenarioByNumber builds Table III scenario n (1-10).
func ScenarioByNumber(n int) (Scenario, error) { return models.ScenarioByNumber(n) }

// DatacenterScenarios returns scenarios 1-5.
func DatacenterScenarios() []Scenario { return models.DatacenterScenarios() }

// ARVRScenarios returns scenarios 6-10.
func ARVRScenarios() []Scenario { return models.ARVRScenarios() }

// Scheduler is the SCAR scheduling framework.
type Scheduler struct {
	db    *costdb.DB
	inner *core.Scheduler
	opts  Options
}

// NewScheduler builds a scheduler with a fresh layer-cost database.
func NewScheduler(opts Options) *Scheduler {
	db := costdb.New(maestro.DefaultParams())
	return &Scheduler{db: db, inner: core.New(db, opts), opts: opts}
}

// NewSchedulerWithCostModel builds a scheduler with custom cost-model
// calibration constants.
func NewSchedulerWithCostModel(opts Options, params CostModelParams) *Scheduler {
	db := costdb.New(params)
	return &Scheduler{db: db, inner: core.New(db, opts), opts: opts}
}

// NewRequest builds the positional form of a Request: schedule sc on m
// under obj with no per-request overrides.
var NewRequest = core.NewRequest

// Schedule runs the full SCAR search for the request and returns the
// optimized schedule with its evaluated metrics.
//
// ctx carries cancellation and deadlines into every layer of the search
// with anytime semantics: on expiry the best incumbent found so far is
// returned with Result.Partial set, or ctx's error when nothing feasible
// was found yet. An uncancelled ctx leaves results bit-identical to the
// pre-context API.
func (s *Scheduler) Schedule(ctx context.Context, req *Request) (*Result, error) {
	return s.inner.Schedule(ctx, req)
}

// ScheduleUniformPacking is the packing-ablation variant (uniform
// layer-to-window distribution instead of Algorithm 1), with the same
// context contract as Schedule.
func (s *Scheduler) ScheduleUniformPacking(ctx context.Context, req *Request) (*Result, error) {
	return s.inner.ScheduleUniformPacking(ctx, req)
}

// Session is a compiled handle for one (scenario, MCM) pair: NewSession
// builds the evaluation session once, and every per-pair operation —
// searching, scoring external schedules, timelines, link loads, the
// paper baselines and simulator-class assembly — runs on that one
// compiled evaluation state.
//
// A Session is immutable after NewSession and safe for concurrent use.
type Session struct {
	sched *Scheduler
	comp  *eval.Compiled
}

// NewSession validates the pair once and returns its compiled handle.
// It compiles the pair's dense cost tables eagerly, so NewSession pays
// the compile cost and every method and Schedule call on the session
// shares the result.
func (s *Scheduler) NewSession(sc *Scenario, m *MCM) (*Session, error) {
	if sc == nil || m == nil {
		return nil, fmt.Errorf("scar: session needs a scenario and an MCM")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Session{sched: s, comp: eval.Compile(s.db, m, sc, s.opts.Eval)}, nil
}

// Scenario returns the session's workload.
func (ses *Session) Scenario() *Scenario { return ses.comp.Scenario() }

// MCM returns the session's package model.
func (ses *Session) MCM() *MCM { return ses.comp.MCM() }

// Schedule runs the SCAR search for the session's pair under obj, on the
// session's compiled evaluation state. Context semantics match
// Scheduler.Schedule.
func (ses *Session) Schedule(ctx context.Context, obj Objective) (*Result, error) {
	return ses.ScheduleRequest(ctx, &Request{Objective: obj})
}

// ScheduleRequest is Schedule with per-request overrides: req.Scenario
// and req.MCM are filled from the session (it is an error to point them
// elsewhere), and req.Compiled is bound to the session's compiled state.
func (ses *Session) ScheduleRequest(ctx context.Context, req *Request) (*Result, error) {
	if req == nil {
		return nil, fmt.Errorf("scar: nil request")
	}
	r := *req
	if r.Scenario == nil {
		r.Scenario = ses.Scenario()
	} else if r.Scenario != ses.Scenario() {
		return nil, fmt.Errorf("scar: request scenario differs from the session's")
	}
	if r.MCM == nil {
		r.MCM = ses.MCM()
	} else if r.MCM != ses.MCM() {
		return nil, fmt.Errorf("scar: request MCM differs from the session's")
	}
	r.Compiled = ses.comp
	return ses.sched.inner.Schedule(ctx, &r)
}

// Evaluate scores an externally built schedule on the session.
func (ses *Session) Evaluate(sched *Schedule) (Metrics, error) {
	return ses.comp.Evaluate(ses.comp.NewScratch(), sched)
}

// Timeline builds the execution trace of a schedule: per-chiplet spans
// consistent with the evaluator's pipeline model. Render it with
// Timeline.Gantt or export it with Timeline.ChromeTrace.
func (ses *Session) Timeline(sched *Schedule) *Timeline {
	return trace.Build(ses.comp, ses.comp.NewScratch(), sched)
}

// LinkLoads maps one window's inter-chiplet traffic onto the NoP links
// (bytes per directed link) — the diagnostic behind the contention model.
func (ses *Session) LinkLoads(w TimeWindow) map[Link]int64 {
	return ses.comp.LinkLoads(w)
}

// Standalone runs the paper's Standalone baseline: one chiplet per model.
func (ses *Session) Standalone() (*Schedule, Metrics, error) {
	return baselines.StandaloneOn(ses.comp)
}

// NNBaton runs the NN-baton-style single-model baseline.
func (ses *Session) NNBaton() (*Schedule, Metrics, error) {
	return baselines.NNBatonOn(ses.comp)
}

// SimClass assembles a request class for the discrete-event simulator
// from a schedule of this session's pair: evaluated metrics, per-model
// deadlines, switch cost and trace spans. Classes from several sessions
// combine into one SimConfig — with Packages replicas and a dispatch
// Policy (FIFOPolicy, EDFPolicy, SwitchAwarePolicy) — and run through
// Simulate; examples/fleet shows a two-package AR/VR deployment built
// this way.
func (ses *Session) SimClass(name string, sched *Schedule, arr Arrivals, slackFactor float64) (SimClass, error) {
	return online.NewClass(name, ses.comp, sched, arr, slackFactor)
}

// SaveCostDB writes the scheduler's warmed layer-cost database as a gob
// stream, so a later process can LoadCostDB and skip cost-model warmup.
func (s *Scheduler) SaveCostDB(w io.Writer) error { return s.db.Save(w) }

// LoadCostDB merges a previously saved cost-database snapshot; snapshots
// calibrated with different cost-model constants are rejected.
func (s *Scheduler) LoadCostDB(r io.Reader) error { return s.db.Load(r) }

// DefaultCostModelParams returns the calibrated cost-model constants.
func DefaultCostModelParams() CostModelParams { return maestro.DefaultParams() }

// AnalyzeLayer probes the intra-chiplet cost model directly: the cost of
// one layer under one dataflow on one chiplet configuration. Useful for
// exploring layer-dataflow affinity (the paper's Section II-C analysis).
func AnalyzeLayer(l Layer, df Dataflow, spec ChipletSpec) LayerCost {
	return maestro.Analyze(l, df, spec, maestro.DefaultParams())
}

// Config file I/O (the framework's documented inputs and outputs).
var (
	// LoadWorkload reads a JSON multi-model workload description.
	LoadWorkload = config.LoadWorkload
	// LoadMCM reads a JSON MCM description.
	LoadMCM = config.LoadMCM
	// ParseWorkload decodes a workload description.
	ParseWorkload = config.ParseWorkload
	// ParseMCM decodes an MCM description.
	ParseMCM = config.ParseMCM
	// ExportSchedule renders a schedule and metrics as JSON.
	ExportSchedule = config.ExportSchedule
)
