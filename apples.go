// Package apples is a Go reproduction of "Scheduling from the Perspective
// of the Application" (Berman & Wolski, HPDC 1996): AppLeS
// application-level scheduling agents, the Network Weather Service they
// draw forecasts from, and the simulated heterogeneous metacomputer the
// experiments run on.
//
// The package is a facade over the implementation in internal/; it
// re-exports the supported surface:
//
//   - a deterministic discrete-event engine (NewEngine) and the paper's
//     testbeds (SDSCPCL, CASA);
//   - ambient load generators for non-dedicated resources;
//   - the Network Weather Service (NewNWS) with its forecaster bank;
//   - Heterogeneous Application Templates for the three applications the
//     paper discusses (JacobiTemplate, ReactTemplate, NileTemplate);
//   - the AppLeS agent itself (NewAgent) with NWS, oracle, and static
//     information sources;
//   - the applications: distributed Jacobi2D execution (RunJacobi), the
//     3D-REACT pipeline (react functions), and CLEO/NILE event analysis
//     (nile functions).
//
// See README.md for a walkthrough and DESIGN.md / EXPERIMENTS.md for the
// experiment inventory.
package apples

import (
	"io"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/jacobi"
	"apples/internal/load"
	"apples/internal/mstore"
	"apples/internal/nile"
	"apples/internal/nws"
	"apples/internal/obs"
	"apples/internal/obs/audit"
	"apples/internal/obs/obshttp"
	"apples/internal/partition"
	"apples/internal/react"
	"apples/internal/rms"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// Simulation engine and load generation.
type (
	// Engine is the deterministic discrete-event simulator all components
	// run on.
	Engine = sim.Engine
	// Rand is the seeded random source used by load generators.
	Rand = sim.Rand
	// LoadSource is a piecewise-constant ambient load process.
	LoadSource = load.Source
	// LoadStep is one segment of an explicit load trace.
	LoadStep = load.Step
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRand returns a deterministic random stream.
func NewRand(seed int64) *Rand { return sim.NewRand(seed) }

// Load trace file I/O (import measured contention, export generated
// scenarios).
var (
	// ParseLoadTrace reads a "time value" text trace.
	ParseLoadTrace = load.ParseTrace
	// WriteLoadTrace writes a trace in the same format.
	WriteLoadTrace = load.WriteTrace
	// RecordLoadSource samples a generator into an explicit trace.
	RecordLoadSource = load.RecordSource
)

// Load generators for non-dedicated resources.
var (
	// NewOnOffLoad alternates idle and busy periods (interactive users).
	NewOnOffLoad = load.NewOnOff
	// NewAR1Load is autocorrelated wandering load (Unix run queues).
	NewAR1Load = load.NewAR1
	// NewPeriodicLoad is diurnal-style sinusoidal load.
	NewPeriodicLoad = load.NewPeriodic
	// NewSpikeLoad adds batch-job spikes over a baseline.
	NewSpikeLoad = load.NewSpikes
	// NewTraceLoad replays an explicit piecewise-constant trace.
	NewTraceLoad = load.NewTrace
	// ConstantLoad is a fixed level forever.
	ConstantLoad = func(v float64) LoadSource { return load.Constant(v) }
)

// Metacomputer model.
type (
	// Topology is the wired metacomputer: hosts, links, routes.
	Topology = grid.Topology
	// Host is one machine with speed, memory, and ambient load.
	Host = grid.Host
	// Link is one shared network segment.
	Link = grid.Link
	// HostSpec declares a host for Topology.AddHost.
	HostSpec = grid.HostSpec
	// LinkSpec declares a link for Topology.AddLink.
	LinkSpec = grid.LinkSpec
	// TestbedOptions configures the paper testbed builders.
	TestbedOptions = grid.TestbedOptions
)

// NewTopology returns an empty metacomputer on the engine.
func NewTopology(eng *Engine) *Topology { return grid.NewTopology(eng) }

// SDSCPCL builds the Figure 2 testbed (with options for dedicated mode and
// the Figure 6 SP-2 extension).
func SDSCPCL(eng *Engine, opt TestbedOptions) *Topology { return grid.SDSCPCL(eng, opt) }

// CASA builds the dedicated C90 + Paragon pair 3D-REACT ran on.
func CASA(eng *Engine) *Topology { return grid.CASA(eng) }

// Network Weather Service.
type (
	// NWS is a Network Weather Service instance: sensors plus forecasts.
	NWS = nws.Service
	// Forecaster is one online predictor in a bank.
	Forecaster = nws.Forecaster
	// ForecasterBank performs dynamic MSE-based predictor selection.
	ForecasterBank = nws.Bank
	// NWSOption configures an NWS instance at construction.
	NWSOption = nws.ServiceOption
)

// NewNWS creates a service sampling every period seconds of virtual time.
func NewNWS(eng *Engine, period float64, opts ...NWSOption) *NWS {
	return nws.NewService(eng, period, opts...)
}

// WithNWSBankFactory replaces the forecaster bank new sensors start with.
func WithNWSBankFactory(mk func() *ForecasterBank) NWSOption { return nws.WithBankFactory(mk) }

// NewForecasterBank builds a predictor bank (the standard NWS set when
// called with no arguments).
func NewForecasterBank(fcs ...Forecaster) *ForecasterBank { return nws.NewBank(fcs...) }

// Durable measurement history: an append-only segment/WAL store shared
// by NWS sensing, load traces, and replay experiments.
type (
	// MeasurementStore is a crash-safe append-only store of measurement
	// records, organised as CRC-framed fixed-size segments.
	MeasurementStore = mstore.Store
	// MeasurementRecord is one stored sample: kind, series, tick, value.
	MeasurementRecord = mstore.Record
	// MeasurementKind tags what a record measures (CPU, bandwidth, load).
	MeasurementKind = mstore.Kind
	// StoreOption configures OpenMeasurementStore.
	StoreOption = mstore.Option
	// StoreRecovery reports what reopening a store after a crash found.
	StoreRecovery = mstore.Recovery
	// LoadTraceStore reads and writes load traces in the store format.
	LoadTraceStore = load.TraceFile
)

// Measurement record kinds.
const (
	KindCPU       = mstore.KindCPU
	KindBandwidth = mstore.KindBandwidth
	KindLoad      = mstore.KindLoad
)

// OpenMeasurementStore opens (creating if needed) a store directory.
func OpenMeasurementStore(dir string, opts ...StoreOption) (*MeasurementStore, error) {
	return mstore.Open(dir, opts...)
}

// StoreReadOnly opens a store for reading only: no files are created or
// repaired, and Append fails.
func StoreReadOnly() StoreOption { return mstore.ReadOnly() }

// WithStoreMetrics registers the store's segment gauge, byte counter,
// and append-latency histogram on the registry.
func WithStoreMetrics(m *Metrics) StoreOption { return mstore.WithMetrics(m) }

// WithNWSStore makes an NWS instance append every observed sample to
// the store; pair with NWS.RestoreFromStore to warm-start forecaster
// banks bit-identically across restarts.
func WithNWSStore(st *MeasurementStore) NWSOption { return nws.WithStore(st) }

// ErrNWSRestoreAfterWatch is returned by NWS.RestoreFromStore once the
// instance already watches a resource; restore before WatchTopology.
var ErrNWSRestoreAfterWatch = nws.ErrRestoreAfterWatch

// Application templates (HAT) and user specifications (US).
type (
	// Template is a Heterogeneous Application Template.
	Template = hat.Template
	// UserSpec carries the user's metric, access rights, and preferences.
	UserSpec = userspec.Spec
)

// Performance metrics for UserSpec.Metric.
const (
	MinExecutionTime = userspec.MinExecutionTime
	MaxSpeedup       = userspec.MaxSpeedup
	MinCost          = userspec.MinCost
)

// JacobiTemplate is the HAT for the n x n Jacobi2D code.
func JacobiTemplate(n, iterations int) *Template { return hat.Jacobi2D(n, iterations) }

// ReactTemplate is the HAT for 3D-REACT with the given surface-function
// count.
func ReactTemplate(surfaceFunctions int) *Template { return hat.React3D(surfaceFunctions) }

// NileTemplate is the HAT for CLEO/NILE event analysis.
func NileTemplate(events int) *Template { return hat.Nile(events) }

// The AppLeS agent.
type (
	// Agent is an application-level scheduler for one application. Its
	// Candidates(n, k) accessor returns the top-k evaluated resource sets
	// sorted ascending by score without committing to a schedule;
	// ScheduleExplained(n, k) returns both the chosen schedule and that
	// ranking.
	Agent = core.Agent
	// AgentSchedule is the coordinator's chosen schedule.
	AgentSchedule = core.Schedule
	// AgentOption configures NewAgent (see WithSpillFactor,
	// WithSelector).
	AgentOption = core.AgentOption
	// Candidate is one evaluated resource set or pipeline mapping, the
	// shared explain currency of Agent.ScheduleExplained/Candidates and
	// PipelineAgent.ScheduleExplained/Candidates.
	Candidate = core.Candidate
	// Information is the agent's dynamic-information source.
	Information = core.Information
	// InfoSnapshot is a point-in-time resolution of an Information
	// source over a host set, immutable once returned, and the one
	// frozen view of every pool size: the agent freezes one per
	// scheduling round over the pool's hosts (position i is the pool's
	// i-th host), the scheduling service shares one across tenants, and
	// a ReschedSession keeps its own, which only its rounds refresh. Up
	// to 64 hosts it materializes every host pair's route; above that it
	// freezes per-link bandwidths and composes each pair on demand.
	InfoSnapshot = core.InfoSnapshot
	// Actuator implements a schedule on the target system.
	Actuator = core.Actuator
	// ActuatorFunc adapts a function to Actuator.
	ActuatorFunc = core.ActuatorFunc
	// Placement is a data decomposition over hosts.
	Placement = partition.Placement
)

// NewAgent assembles an AppLeS from its information pool. Options tune
// the candidate-evaluation engine. Every round snapshots the information
// source once and evaluates candidate sets inline on pools up to 64
// hosts, or on a GOMAXPROCS-wide worker pool above that; either way the
// decision is exactly the one sequential evaluation makes.
func NewAgent(tp *Topology, tpl *Template, spec *UserSpec, info Information, opts ...AgentOption) (*Agent, error) {
	return core.NewAgent(tp, tpl, spec, info, opts...)
}

// Agent construction options.
var (
	// WithSpillFactor sets the estimator's out-of-memory penalty
	// (default 25).
	WithSpillFactor = core.WithSpillFactor
	// WithSelector picks the resource-selector family an agent enumerates
	// candidates with (exhaustive below 2^12, or the greedy / beam
	// heuristics that scale to thousand-host pools).
	WithSelector = core.WithSelector
)

// Resource-selector families (the "scaling past the 2^n wall" surface).
type (
	// SelectorKind names a selector family for SelectorSpec.Kind.
	SelectorKind = core.SelectorKind
	// SelectorSpec configures the selector family an agent uses; the zero
	// value means the default exhaustive/prefix behavior.
	SelectorSpec = core.SelectorSpec
)

// Selector kinds for SelectorSpec.Kind.
const (
	// SelectorExhaustive enumerates every subset on small pools (the
	// default, exact up to 12 hosts; desirability prefixes beyond).
	SelectorExhaustive = core.SelectorExhaustive
	// SelectorGreedy grows sets by marginal gain over host desirability.
	SelectorGreedy = core.SelectorGreedy
	// SelectorBeam runs a width-8 beam search over add/drop/swap moves.
	SelectorBeam = core.SelectorBeam
)

// ParseSelector parses a -selector flag value ("exhaustive", "greedy",
// "beam") into a SelectorSpec.
var ParseSelector = core.ParseSelector

// SnapshotInformation freezes an Information source over a host set:
// each distinct host once, a non-finite availability as 0 and one above
// 1 as 1, a route latency that is not finite or above 10^6 s as
// 10^6 s, and a NaN bandwidth or one below 10^-6 MB/s as 0, a dead
// route.
var SnapshotInformation = core.SnapshotInformation

// Delta-aware rescheduling (the kHz-rate loop).
type (
	// ReschedSession is the incremental form of Agent.Schedule for
	// applications that re-ask the scheduling question at high rates: it
	// freezes the candidate universe once (one bitmask per set over the
	// pool ordering), then each Round() re-plans only the candidates
	// whose bound under the user's metric (time, speedup or cost) does
	// not rule them out against the previous winner. A round that
	// observes no change returns the previous schedule and is
	// allocation-free. Create one with Agent.NewReschedSession(n). Only
	// an agent whose universe cannot change with information gets one:
	// the exhaustive selector over at most 12 hosts, with no
	// MaxResourceSets cap below every subset. Any other agent gets
	// ErrSessionUniverse and should schedule with fresh rounds, as its
	// Rescheduler does.
	ReschedSession = core.ReschedSession
	// DeltaStats describes what one session round did: hosts whose
	// availability changed, links on the pool's routes (or host pairs)
	// changed, candidates rescored and pruned vs considered, and
	// whether the round was quiescent (Carried).
	DeltaStats = core.DeltaStats
)

// NewOverlayInformation layers a live per-host availability override map
// on an Information source — the driver for delta-rescheduling tests,
// benchmarks, and churn experiments.
var NewOverlayInformation = core.NewOverlayInformation

// Multi-tenant scheduling service (the shared daemon behind
// `apples -serve`). Agents register as tenants; the service shares one
// frozen information snapshot across concurrent tenant rounds
// (copy-on-write), bounds how many rounds run at once by its runner
// count, and admission-controls submissions behind a bounded queue.
type (
	// SchedService is the shared scheduling daemon: registered tenants
	// submit rounds, runners serve them with per-tenant FIFO ordering,
	// and concurrent rounds over the same (information, pool) share one
	// snapshot.
	SchedService = core.SchedService
	// SchedTenant is one registered client of a SchedService: an
	// Agent.
	SchedTenant = core.Tenant
	// SchedServiceOption configures NewSchedService.
	SchedServiceOption = core.ServiceOption
	// SchedRoundResult is one completed service round.
	SchedRoundResult = core.RoundResult
	// SchedTenantStatus is the /tenants table row for one tenant.
	SchedTenantStatus = core.TenantStatus
)

// NewSchedService builds the shared scheduling daemon.
func NewSchedService(opts ...SchedServiceOption) *SchedService { return core.NewSchedService(opts...) }

// Scheduling-service construction options.
var (
	// WithQueueDepth bounds the admission queue; submissions beyond it
	// fail fast with ErrSchedQueueFull.
	WithQueueDepth = core.WithQueueDepth
	// WithServiceRunners sets how many rounds the service serves
	// concurrently (default GOMAXPROCS).
	WithServiceRunners = core.WithServiceRunners
	// WithServiceMetrics registers the service's queue, snapshot, and
	// per-tenant round instruments in a shared registry.
	WithServiceMetrics = core.WithServiceMetrics
	// WithServiceTracer streams tenant_round events to a trace sink.
	WithServiceTracer = core.WithServiceTracer
)

// Scheduling-service sentinel errors.
var (
	// ErrSchedQueueFull: the admission queue is at capacity; back off
	// and retry.
	ErrSchedQueueFull = core.ErrQueueFull
	// ErrSchedServiceClosed: the service has been closed.
	ErrSchedServiceClosed = core.ErrServiceClosed
)

// ServeScheduler starts the service HTTP front end on addr (":0" picks
// an ephemeral port): /schedule runs one tenant round, /tenants serves
// the tenant table, and the observability endpoints (/metrics,
// /trace/recent, /healthz, /debug/pprof) ride along. Stop it with
// Close; closing the server does not close the service.
func ServeScheduler(addr string, svc *SchedService, m *Metrics, ring *RingTracer, opts ...ObsServeOption) (*ObsServer, error) {
	return obshttp.ServeService(addr, svc, m, ring, opts...)
}

// Observability: decision traces and metrics (internal/obs). A nil
// Tracer or Metrics means "off" and costs the instrumented hot paths a
// single pointer check.
type (
	// Tracer receives structured decision-trace events; implementations
	// must tolerate concurrent Emit calls.
	Tracer = obs.Tracer
	// TracerFunc adapts a function to Tracer.
	TracerFunc = obs.TracerFunc
	// TraceEvent is one record of a decision trace (snapshot built,
	// candidate evaluated/pruned, winner chosen, verdicts).
	TraceEvent = obs.Event
	// TraceEventType tags a TraceEvent.
	TraceEventType = obs.EventType
	// JSONLTracer writes events as JSON lines (the -trace file format).
	JSONLTracer = obs.JSONLTracer
	// TraceCollector buffers events in memory for inspection.
	TraceCollector = obs.Collector
	// MultiTracer fans events out to several sinks.
	MultiTracer = obs.MultiTracer
	// RingTracer is a bounded in-memory sink retaining the last N events
	// (the /trace/recent backing store).
	RingTracer = obs.RingTracer
	// Metrics is a registry of atomic counters, gauges, and fixed-bucket
	// histograms shared across subsystems.
	Metrics = obs.Metrics
	// Counter, Gauge, and Histogram are the registry's instrument
	// handles (Histogram carries bucket counts plus Quantile estimation).
	Counter   = obs.Counter
	Gauge     = obs.Gauge
	Histogram = obs.Histogram
	// StageTimer hands out stage-latency Spans recording into per-stage
	// histograms (and the trace, when built with a tracer).
	StageTimer = obs.StageTimer
	// Span is one in-flight stage measurement; End closes it.
	Span = obs.Span
	// ObsServer is a running HTTP observability listener
	// (/metrics, /healthz, /trace/recent, /debug/pprof).
	ObsServer = obshttp.Server
)

// NewJSONLTracer returns a tracer emitting one JSON object per line.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// NewTraceCollector returns an empty in-memory trace sink.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// NewRingTracer returns a bounded trace sink retaining the last n
// events; attach it alongside other sinks (MultiTracer) to keep a live
// window a long run can serve from /trace/recent without growing.
func NewRingTracer(n int) *RingTracer { return obs.NewRingTracer(n) }

// NewStageTimer builds a stage timer over a registry: spans observe
// into `sched_stage_seconds{stage="..."}` histograms, and a non-nil
// tracer additionally receives one EvSpan event per closed span. The
// clock is injectable (monotonic seconds) for deterministic tests and
// simulations; nil uses the real monotonic clock.
func NewStageTimer(m *Metrics, tr Tracer, clock func() float64) *StageTimer {
	return obs.NewStageTimer(m, tr, clock)
}

// ServeObservability starts the HTTP observability server on addr
// (":0" picks an ephemeral port): /metrics serves the registry in
// Prometheus text format, /trace/recent the ring's latest events as
// JSON, /healthz a liveness probe, and /debug/pprof the Go profiler.
// Either registry or ring may be nil; the matching endpoint then
// reports 404. Stop it with Close. Options add component health checks
// (WithObsComponent) and the audit endpoints (WithObsAudit).
func ServeObservability(addr string, m *Metrics, ring *RingTracer, opts ...ObsServeOption) (*ObsServer, error) {
	return obshttp.Serve(addr, m, ring, opts...)
}

// Forecast & decision quality auditing (internal/obs/audit): the
// closing-the-loop subsystem joining each scheduling round's
// completion-time prediction with the observed actual, scoring every
// forecaster against the naive last-value baseline, and flipping
// drifting series into degraded on /healthz. A nil engine is off
// everywhere and costs one pointer check.
type (
	// AuditEngine is the online predicted-vs-actual audit engine.
	AuditEngine = audit.Engine
	// AuditOption configures NewAuditEngine.
	AuditOption = audit.Option
	// AuditSnapshot is the decision-quality report (/audit).
	AuditSnapshot = audit.Snapshot
	// AuditSeriesReport is one series' forecaster skill report
	// (/audit/series).
	AuditSeriesReport = audit.SeriesReport
	// ObsServeOption configures ServeObservability / ServeScheduler.
	ObsServeOption = obshttp.ServeOption
)

// NewAuditEngine returns an audit engine; see AuditOption constructors
// for metrics, tracing, and drift-detector tuning.
func NewAuditEngine(opts ...AuditOption) *AuditEngine { return audit.New(opts...) }

// WithAuditMetrics publishes the engine's counters and the
// sched_prediction_error_seconds / nws_forecast_skill /
// audit_drift_alarms_total families into a shared registry.
func WithAuditMetrics(m *Metrics) AuditOption { return audit.WithMetrics(m) }

// WithAuditTracer emits one EvAudit trace event per join and per drift
// alarm.
func WithAuditTracer(tr Tracer) AuditOption { return audit.WithTracer(tr) }

// WithAuditPageHinkley tunes the drift detector (tolerance delta,
// alarm threshold lambda, warmup minSamples).
func WithAuditPageHinkley(delta, lambda float64, minSamples int) AuditOption {
	return audit.WithPageHinkley(delta, lambda, minSamples)
}

// Audit wiring into the agent, the NWS, and the observability server.
var (
	// WithAudit makes an agent's Run join its winning prediction with
	// the measured execution time in the audit engine.
	WithAudit = core.WithAudit
	// WithAuditTenant labels the agent's joins in the per-tenant
	// breakdown.
	WithAuditTenant = core.WithAuditTenant
	// WithObsAudit mounts /audit and /audit/series on the observability
	// server and folds the engine's drift state into /healthz.
	WithObsAudit = obshttp.WithAudit
	// WithObsComponent adds a named component health check to /healthz.
	WithObsComponent = obshttp.WithComponent
)

// WithNWSResiduals streams every sensor sample's forecaster residuals
// into the audit engine — each ready forecaster's standing one-step
// prediction scored against the value that actually arrived.
func WithNWSResiduals(aud *AuditEngine) NWSOption { return nws.WithResiduals(aud) }

// AuditMeasurementStore replays every sensor record in a measurement
// store through fresh forecaster banks into the audit engine — the
// offline counterpart of WithNWSResiduals, reproducing exactly the
// residual stream the live sweep emitted. Returns how many sensor
// records were audited.
func AuditMeasurementStore(st *MeasurementStore, aud *AuditEngine) (int, error) {
	return nws.AuditStore(st, aud, nil)
}

// NewMetrics returns an empty metrics registry. Hand the same registry
// to WithMetrics, WithNWSMetrics, and Engine.SetMetrics to aggregate one
// run's counters in one place, then render it with Metrics.WriteTo.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Observability wiring for the agent and the NWS.
var (
	// WithTracer streams every scheduling-round decision step of an
	// agent (or coordinator) to a trace sink.
	WithTracer = core.WithTracer
	// WithMetrics registers the agent's round counters and latency
	// histograms in a shared registry.
	WithMetrics = core.WithMetrics
	// WithStageTiming attaches a stage timer: every round records
	// per-stage latency spans (snapshot/select/plan_estimate/reduce,
	// plus actuate in Run).
	WithStageTiming = core.WithStageTiming
)

// WithNWSMetrics registers an NWS instance's sensing counters
// (bank updates, sensor sweeps) in a shared registry.
func WithNWSMetrics(m *Metrics) NWSOption { return nws.WithMetrics(m) }

// WithNWSStageTiming times each NWS batch sensor sweep as a
// sensor_sweep stage span on the given timer.
func WithNWSStageTiming(st *StageTimer) NWSOption { return nws.WithStageTiming(st) }

// Sentinel errors, for errors.Is instead of string matching.
var (
	// ErrNoFeasibleHosts: the user specification filters out every host.
	ErrNoFeasibleHosts = core.ErrNoFeasibleHosts
	// ErrNoFeasiblePlan: no candidate produced a feasible plan.
	ErrNoFeasiblePlan = core.ErrNoFeasiblePlan
	// ErrBadTemplate: the template does not fit the agent blueprint.
	ErrBadTemplate = core.ErrBadTemplate
	// ErrSessionUniverse: the agent's candidate universe depends on
	// information, so it gets no ReschedSession.
	ErrSessionUniverse = core.ErrSessionUniverse
)

// Pipeline blueprint (the Section 4.2 agent for 3D-REACT-shaped codes).
type (
	// PipelineAgent schedules two-task pipelined applications. Like
	// Agent, it exposes Candidates(k) and ScheduleExplained(k) returning
	// the shared Candidate ranking (single-site mappings have one host,
	// pipeline mappings [producer, consumer] plus the tuned Unit).
	PipelineAgent = core.PipelineAgent
	// PipelineSchedule is its chosen mapping + pipeline unit.
	PipelineSchedule = core.PipelineSchedule
)

// NewPipelineAgent assembles a pipeline-blueprint AppLeS. It shares the
// Agent's evaluation engine and accepts the same options (the pipeline
// blueprint has no spill model, so WithSpillFactor is a no-op).
func NewPipelineAgent(tp *Topology, tpl *Template, spec *UserSpec, info Information, opt ReactOptions, opts ...AgentOption) (*PipelineAgent, error) {
	return core.NewPipelineAgent(tp, tpl, spec, info, opt, opts...)
}

// Information sources for the agent.
var (
	// NWSInformation backs the agent with NWS forecasts (production).
	NWSInformation = core.NWSInformation
	// OracleInformation backs it with perfect knowledge (ablation).
	OracleInformation = core.OracleInformation
	// StaticInformation backs it with compile-time assumptions (ablation).
	StaticInformation = core.StaticInformation
)

// Decompositions (the baselines of Figures 4-6).
var (
	// UniformStrip splits the domain into equal row bands.
	UniformStrip = partition.UniformStrip
	// WeightedStrip assigns bands proportional to weights (static
	// non-uniform strip, Figure 4).
	WeightedStrip = partition.WeightedStrip
	// BlockedPartition is the HPF-style uniform 2D decomposition.
	BlockedPartition = partition.Blocked
	// BlockCyclicPartition is the HPF CYCLIC(k) row distribution.
	BlockCyclicPartition = partition.BlockCyclic
	// ReadPlacement loads a placement serialized with Placement.WriteTo.
	ReadPlacement = partition.ReadPlacement
)

// Jacobi2D execution.
type (
	// JacobiConfig parameterizes a simulated Jacobi2D run.
	JacobiConfig = jacobi.Config
	// JacobiResult reports a completed run.
	JacobiResult = jacobi.Result
	// JacobiAdaptiveConfig adds rescheduling points to a run.
	JacobiAdaptiveConfig = jacobi.AdaptiveConfig
	// JacobiAdaptiveResult adds redistribution accounting.
	JacobiAdaptiveResult = jacobi.AdaptiveResult
	// ReplanFunc is consulted at rescheduling points; Agent.Rescheduler
	// returns the paper's Section 3.2 policy.
	ReplanFunc = jacobi.ReplanFunc
)

// RunJacobi executes a placement on the topology.
func RunJacobi(tp *Topology, p *Placement, cfg JacobiConfig) (*JacobiResult, error) {
	return jacobi.Run(tp, p, cfg)
}

// StartJacobi begins a run asynchronously (several applications can share
// the metacomputer; whenDone fires at completion).
func StartJacobi(tp *Topology, p *Placement, cfg JacobiConfig, whenDone func(*JacobiResult)) error {
	return jacobi.Start(tp, p, cfg, whenDone)
}

// Wait-or-run (Section 3.2's dedicated-access decision).
type (
	// DedicatedOffer is a batch-queue offer of dedicated hosts after a
	// forecast wait.
	DedicatedOffer = core.DedicatedOffer
	// WaitOrRunDecision compares waiting for dedicated access against
	// running shared now.
	WaitOrRunDecision = core.WaitOrRunDecision
)

// RunJacobiAdaptive executes a placement with mid-run redistribution: the
// Replan hook is consulted every CheckEvery iterations, and accepted
// placements pay their migration traffic through the simulated network.
func RunJacobiAdaptive(tp *Topology, p *Placement, cfg JacobiAdaptiveConfig) (*JacobiAdaptiveResult, error) {
	return jacobi.RunAdaptive(tp, p, cfg)
}

// JacobiActuator adapts RunJacobi to the agent's Actuator interface.
func JacobiActuator(tp *Topology, cfg JacobiConfig) Actuator {
	return core.ActuatorFromJacobi(tp, cfg)
}

// RMSActuator actuates schedules through the PVM-style rms substrate
// (message-passing borders, explicit barrier protocol).
func RMSActuator(tp *Topology, cfg JacobiConfig) Actuator {
	return core.ActuatorFromRMS(tp, cfg)
}

// RunJacobiViaRMS executes a placement through the rms substrate.
func RunJacobiViaRMS(tp *Topology, p *Placement, cfg JacobiConfig) (*JacobiResult, error) {
	return jacobi.RunViaRMS(tp, p, cfg)
}

// 3D-REACT (task-parallel pipeline).
type (
	// ReactOptions tunes the pipeline model.
	ReactOptions = react.Options
	// ReactResult reports an executed pipeline run.
	ReactResult = react.Result
	// ReactModel is the analytic pipeline performance model.
	ReactModel = react.Model
)

// React pipeline entry points.
var (
	// RunReactPipeline executes the two-task pipeline.
	RunReactPipeline = react.RunPipeline
	// RunReactSingleSite executes the sequential single-machine variant.
	RunReactSingleSite = react.RunSingleSite
	// NewReactModel builds the analytic model for a mapping.
	NewReactModel = react.NewModel
	// ChooseReactMapping picks the better task-to-machine mapping.
	ChooseReactMapping = react.ChooseMapping
	// PredictChain models an N-stage heterogeneous pipeline.
	PredictChain = react.PredictChain
	// RunChain executes an N-stage pipeline on the metacomputer.
	RunChain = react.RunChain
)

// ChainStage is one stage of an N-stage pipeline (instrument ->
// preprocessor -> supercomputer couplings, per the paper's introduction).
type ChainStage = react.ChainStage

// CLEO/NILE event analysis.
type (
	// NileDataset is an event collection at a data site.
	NileDataset = nile.Dataset
	// NileJob is a physicist's repeated analysis.
	NileJob = nile.Job
	// NileStrategy selects remote, skim, or at-data execution.
	NileStrategy = nile.Strategy
	// NileResult reports an executed analysis.
	NileResult = nile.Result
	// SiteManager predicts and picks analysis strategies.
	SiteManager = nile.SiteManager
)

// NILE strategies.
const (
	NileRemote = nile.Remote
	NileSkim   = nile.Skim
	NileAtData = nile.AtData
)

// PVM-style resource-management substrate (what AppLeS actuates through).
type (
	// RMSMachine is a PVM-style virtual machine over the metacomputer.
	RMSMachine = rms.Machine
	// RMSTask is one spawned task.
	RMSTask = rms.Task
	// RMSMessage is one delivered message.
	RMSMessage = rms.Message
)

// RMS entry points.
var (
	// NewRMS builds a virtual machine over a topology.
	NewRMS = rms.New
	// RunMasterWorker farms self-scheduled chunks over workers.
	RunMasterWorker = rms.RunMasterWorker
	// RunRing passes a token around a host ring (a network microbench).
	RunRing = rms.RunRing
)

// NILE entry points.
var (
	// RunNile executes one strategy for a job.
	RunNile = nile.Execute
	// NewSiteManager builds the strategy-choosing site manager.
	NewSiteManager = nile.NewSiteManager
	// RunNileDistributed analyzes a sharded catalog in place, in parallel.
	RunNileDistributed = nile.ExecuteDistributed
	// NileCentralizedBaseline streams everything to one host instead.
	NileCentralizedBaseline = nile.CentralizedBaseline
	// NileJobFromTemplate derives a job from the CLEO/NILE HAT.
	NileJobFromTemplate = nile.JobFromTemplate
)
