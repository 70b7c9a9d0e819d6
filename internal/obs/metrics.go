package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names. Subsystems resolve handles for these once at
// construction; the plain-text dump and the CLIs key on the same names.
const (
	// Scheduling rounds (core.Coordinator). MetricCandidatesPruned also
	// counts the sets bounded ReschedSession rounds skip.
	MetricRounds               = "sched_rounds_total"
	MetricCandidatesEvaluated  = "sched_candidates_evaluated_total"
	MetricCandidatesPruned     = "sched_candidates_pruned_total"
	MetricCandidatesInfeasible = "sched_candidates_infeasible_total"
	MetricRoundSeconds         = "sched_round_seconds"
	MetricSnapshotSeconds      = "sched_snapshot_seconds"
	// MetricCandidates is the base name of the per-selector candidate
	// counter family; concrete series carry a selector label in the
	// registry key, e.g. `sched_candidates_total{selector="greedy"}`
	// (see NameWithLabels).
	MetricCandidates = "sched_candidates_total"
	// MetricSelectorTruncated counts rounds whose selector capped its
	// enumeration (the EvTruncated trace event).
	MetricSelectorTruncated = "sched_selector_truncated_total"
	// MetricRoundDeltaRatio is the fraction of the frozen candidate
	// universe re-scored by the most recent session round (0 on a
	// quiescent round, 1 on a full round and on an unbounded cold
	// round).
	MetricRoundDeltaRatio = "sched_round_delta_ratio"
	// MetricCandidatesRescored counts candidate sets re-planned by
	// delta-aware session rounds across the process lifetime.
	MetricCandidatesRescored = "sched_candidates_rescored_total"
	// Multi-tenant scheduling service (core.SchedService).
	// MetricTenantRounds and MetricTenantRoundSeconds are per-tenant
	// label families: concrete series carry a tenant label in the
	// registry key, e.g. `sched_tenant_rounds_total{tenant="t3"}`.
	MetricTenantRounds       = "sched_tenant_rounds_total"
	MetricTenantRoundSeconds = "sched_tenant_round_seconds"
	// MetricQueueDepth is the service's admitted-but-unfinished request
	// count; MetricQueueRejected counts submissions bounced with
	// ErrQueueFull.
	MetricQueueDepth    = "sched_queue_depth"
	MetricQueueRejected = "sched_queue_rejected_total"
	// MetricSnapshotShared is the running fraction of service rounds that
	// reused a cache-shared snapshot instead of freezing their own;
	// MetricSnapshotBuilds and MetricSnapshotReused are the underlying
	// counters.
	MetricSnapshotShared = "sched_snapshot_shared_ratio"
	MetricSnapshotBuilds = "sched_snapshot_builds_total"
	MetricSnapshotReused = "sched_snapshot_reused_total"
	// MetricTenantFairness is the max/min completed-round ratio across
	// tenants that have finished at least one round (1 = perfectly fair).
	MetricTenantFairness = "sched_tenant_fairness_ratio"
	// Sensing (nws.Service).
	MetricBankUpdates  = "nws_bank_updates_total"
	MetricSensorSweeps = "nws_sensor_sweeps_total"
	// Durable measurement store (mstore.Store): segment count, appended
	// bytes, and the per-append latency distribution.
	MetricStoreSegments      = "mstore_segments"
	MetricStoreBytes         = "mstore_appended_bytes_total"
	MetricStoreAppendSeconds = "mstore_append_seconds"
	// Simulation (sim.Engine).
	MetricSimEvents = "sim_events_total"
	// Forecast & decision audit (audit.Engine).
	// MetricPredictionError is the |predicted-actual| distribution of
	// joined scheduling decisions, in seconds.
	MetricPredictionError = "sched_prediction_error_seconds"
	// MetricForecastSkill is a per-series label family: concrete gauges
	// carry kind/series/forecaster labels in the registry key, e.g.
	// `nws_forecast_skill{kind="cpu",series="alpha1",forecaster="ar1"}`,
	// holding 1 - MAE/MAE_naive against the last-value baseline.
	MetricForecastSkill = "nws_forecast_skill"
	// MetricDriftAlarms counts Page-Hinkley alarms across every decision
	// and forecaster drift detector.
	MetricDriftAlarms = "audit_drift_alarms_total"
	// Join bookkeeping: predictions joined with an actual, actuals that
	// found no standing prediction, predictions whose actual never came
	// inside the TTL, and the current outstanding-prediction count.
	MetricAuditJoined   = "audit_joined_total"
	MetricAuditOrphaned = "audit_orphaned_total"
	MetricAuditExpired  = "audit_expired_total"
	MetricAuditPending  = "audit_pending"
	// Serving-process self-description (see EnableRuntime).
	MetricGoroutines    = "go_goroutines"
	MetricHeapBytes     = "go_heap_alloc_bytes"
	MetricGCPauseTotal  = "go_gc_pause_seconds_total"
	MetricGCCycles      = "go_gc_cycles_total"
	MetricProcessUptime = "process_uptime_seconds"
)

// DefaultLatencyBuckets are the upper bounds (seconds) used for the
// round- and snapshot-latency histograms: decades from 10µs to 10s.
var DefaultLatencyBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// StoreAppendBuckets are the bounds for mstore_append_seconds: a
// buffered append is sub-microsecond, a rotation pays an fsync, so the
// decades run from 100ns to 100ms.
var StoreAppendBuckets = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// PredictionErrorBuckets are the bounds for the
// sched_prediction_error_seconds histogram. Decision errors live on
// the scale of application runtimes (seconds to hours), not scheduler
// latencies, so the edges run from 100ms to an hour.
var PredictionErrorBuckets = []float64{0.1, 1, 10, 60, 300, 1800, 3600}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomically settable float value (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. The bounds are
// upper edges in ascending order with an implicit +Inf bucket at the
// end; Observe is a linear scan plus three atomic updates — no
// allocation, no lock — so it is safe on the scheduling hot path.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank — the same estimator as PromQL's histogram_quantile. The
// first bucket interpolates from lower edge 0 (observations here are
// non-negative latencies); a rank landing in the +Inf overflow bucket
// reports the highest finite bound, since no upper edge exists to
// interpolate toward. Returns NaN for an empty histogram or q outside
// [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * float64(n)
	var cum float64
	for i := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if c == 0 {
				return lower
			}
			return lower + (h.bounds[i]-lower)*(rank-cum)/c
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns the bucket upper bounds and their counts (the last
// count is the +Inf overflow bucket). The slices are fresh copies.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// Metrics is a named registry of counters, gauges, and histograms.
// Lookup (get-or-create) takes a lock and may allocate; handles are
// meant to be resolved once at construction and then updated atomically,
// keeping instrumented hot paths allocation-free. All methods are safe
// for concurrent use.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// collectors refresh gauges before each exposition (see OnCollect);
	// collectMu guards the list, apart from mu so that a collector may
	// resolve handles.
	collectMu  sync.Mutex
	collectors []func()

	// rt is the serving-process collector once EnableRuntime ran.
	rt atomic.Pointer[runtimeCollector]
}

// OnCollect registers fn to run before every WriteTo and
// WritePrometheus, before the registry is locked: the hook for gauges
// that are cheap to compute at exposition but would cost every update
// to keep current (the runtime gauges, a scheduling service's fairness
// ratio). fn may resolve and set handles but must not render the
// registry. Collectors run in registration order.
func (m *Metrics) OnCollect(fn func()) {
	m.collectMu.Lock()
	m.collectors = append(m.collectors, fn)
	m.collectMu.Unlock()
}

// collect runs the registered collectors.
func (m *Metrics) collect() {
	m.collectMu.Lock()
	fns := m.collectors
	m.collectMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls keep the original bounds; nil
// bounds default to DefaultLatencyBuckets).
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.histograms[name]
	if h == nil {
		if bounds == nil {
			bounds = DefaultLatencyBuckets
		}
		h = newHistogram(bounds)
		m.histograms[name] = h
	}
	return h
}

// WriteTo renders the registry as a plain-text dump, one metric per
// line sorted by name — the `apples -metrics` output format:
//
//	counter sched_rounds_total 42
//	gauge   ...
//	hist    sched_round_seconds count=42 sum=0.103 mean=0.002 p50=0.0018 p95=0.009 p99=0.03 le{0.00001:0 ...}
//
// The p50/p95/p99 columns are bucket-interpolated estimates (see
// Quantile); WritePrometheus exposes the same registry in Prometheus
// text format instead.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.collect()
	m.mu.Lock()
	defer m.mu.Unlock()
	var sb strings.Builder
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "counter %-34s %d\n", n, m.counters[n].Value())
	}
	names = names[:0]
	for n := range m.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "gauge   %-34s %g\n", n, m.gauges[n].Value())
	}
	names = names[:0]
	for n := range m.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := m.histograms[n]
		bounds, counts := h.Buckets()
		fmt.Fprintf(&sb, "hist    %-34s count=%d sum=%g mean=%g p50=%.4g p95=%.4g p99=%.4g le{",
			n, h.Count(), h.Sum(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		for i, b := range bounds {
			fmt.Fprintf(&sb, "%g:%d ", b, counts[i])
		}
		fmt.Fprintf(&sb, "+Inf:%d}\n", counts[len(counts)-1])
	}
	k, err := io.WriteString(w, sb.String())
	return int64(k), err
}
