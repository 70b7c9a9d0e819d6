package audit

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apples/internal/obs"
)

// DecisionLabels classify a joined prediction for breakdown: which
// tenant issued it, which selector family enumerated the winning set,
// and which host class (architecture family, or "mixed") won.
type DecisionLabels struct {
	Tenant    string `json:"tenant"`
	Selector  string `json:"selector"`
	HostClass string `json:"host_class"`
}

// Prediction is one decision's completion-time estimate awaiting its
// actual. Key must come from NextKey; Predicted is the coordinator
// winner's predicted total seconds.
type Prediction struct {
	Key       uint64
	Labels    DecisionLabels
	Predicted float64
}

// Join is the outcome of a RecordActual that found its prediction.
type Join struct {
	Labels    DecisionLabels
	Predicted float64
	Actual    float64
	// Err is the signed error Predicted - Actual (positive: the
	// estimator promised more time than the run took).
	Err float64
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithMetrics surfaces the engine through a registry: the
// sched_prediction_error_seconds histogram, audit_* join/drift
// counters, the audit_pending gauge, and per-series nws_forecast_skill
// gauges. Handles resolve once here (per-series gauges resolve on
// first observation and are cached).
func WithMetrics(m *obs.Metrics) Option {
	return func(e *Engine) {
		if m == nil {
			return
		}
		e.reg = m
		e.metErr = m.Histogram(obs.MetricPredictionError, obs.PredictionErrorBuckets)
		e.metJoined = m.Counter(obs.MetricAuditJoined)
		e.metOrphaned = m.Counter(obs.MetricAuditOrphaned)
		e.metExpired = m.Counter(obs.MetricAuditExpired)
		e.metAlarms = m.Counter(obs.MetricDriftAlarms)
		e.metPending = m.Gauge(obs.MetricAuditPending)
	}
}

// WithTracer emits an EvAudit event per joined prediction and per
// drift alarm.
func WithTracer(t obs.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithClock injects the monotonic-seconds clock used for prediction
// TTL expiry (nil: wall clock). Simulations pass the engine's virtual
// clock so audits stay deterministic.
func WithClock(fn func() float64) Option {
	return func(e *Engine) {
		if fn != nil {
			e.clock = fn
		}
	}
}

// WithPendingTTL bounds how long (in clock seconds) a prediction waits
// for its actual before expiring (default 3600).
func WithPendingTTL(seconds float64) Option {
	return func(e *Engine) {
		if seconds > 0 {
			e.ttl = seconds
		}
	}
}

// WithMaxPending caps the outstanding-prediction table (default 4096);
// beyond it the oldest pending prediction is expired to admit the new
// one, so a producer whose actuals never arrive cannot grow the engine
// without bound.
func WithMaxPending(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maxPending = n
		}
	}
}

// WithPageHinkley overrides the drift-detector parameters shared by
// every per-series and per-tenant detector.
func WithPageHinkley(delta, lambda float64, minSamples int) Option {
	return func(e *Engine) {
		e.phDelta, e.phLambda, e.phMin = delta, lambda, minSamples
	}
}

// WithSkillGaugeLimit caps how many distinct series get per-series
// nws_forecast_skill gauges (default 64) — on a 2048-host grid the
// label cardinality would otherwise swamp the registry. Series beyond
// the cap are still fully scored in SeriesSnapshot; only the gauge is
// skipped.
func WithSkillGaugeLimit(n int) Option {
	return func(e *Engine) { e.skillGaugeLimit = n }
}

// CalibrationBuckets are the predicted/actual ratio edges of the
// calibration histogram: a well-calibrated estimator concentrates mass
// around 1.0; mass below means under-prediction (runs took longer than
// promised), above means over-prediction.
var CalibrationBuckets = []float64{0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 2.0}

// Engine is the online audit core. All methods are safe for concurrent
// use; every ingestion path takes one mutex, so auditing serializes
// observers — the cost of the loop being closed. A nil *Engine is
// inert: every exported method returns zeroes without panicking, so
// call sites guard with a single nil check.
type Engine struct {
	mu sync.Mutex

	clock      func() float64
	ttl        float64
	maxPending int

	keys atomic.Uint64

	pending map[uint64]pendingPred
	order   []uint64 // issue order; may contain keys already joined

	groups map[DecisionLabels]*groupAgg
	calAll []uint64 // engine-wide calibration counts, len(CalibrationBuckets)+1

	joined, orphaned, expired uint64
	alarms                    uint64

	series map[seriesKey]*seriesAgg
	bound  []boundSeries // ResidualSeries handles

	phDelta         float64
	phLambda        float64
	phMin           int
	skillGaugeLimit int

	degraded map[string]string // entity ("tenant/x", "series/cpu/y") -> detail

	reg         *obs.Metrics
	metErr      *obs.Histogram
	metJoined   *obs.Counter
	metOrphaned *obs.Counter
	metExpired  *obs.Counter
	metAlarms   *obs.Counter
	metPending  *obs.Gauge
	tracer      obs.Tracer
}

type pendingPred struct {
	labels    DecisionLabels
	predicted float64
	issued    float64
}

// groupAgg accumulates one (tenant, selector, host-class) cell.
type groupAgg struct {
	n         int
	sumErr    float64 // signed predicted-actual
	sumAbsErr float64
	sumAPE    float64 // |err|/actual, over samples with actual > 0
	nAPE      int
	cal       []uint64
	ph        *PageHinkley
}

// monotonicBase anchors the default clock (matching obs.StageTimer's).
var monotonicBase = time.Now()

// New builds an audit engine. With no options it aggregates silently —
// attach WithMetrics/WithTracer to surface it, or read Snapshot and
// SeriesSnapshot directly.
func New(opts ...Option) *Engine {
	e := &Engine{
		clock:           func() float64 { return time.Since(monotonicBase).Seconds() },
		ttl:             3600,
		maxPending:      4096,
		pending:         make(map[uint64]pendingPred),
		groups:          make(map[DecisionLabels]*groupAgg),
		calAll:          make([]uint64, len(CalibrationBuckets)+1),
		series:          make(map[seriesKey]*seriesAgg),
		phDelta:         DefaultPHDelta,
		phLambda:        DefaultPHLambda,
		phMin:           DefaultPHMinSamples,
		skillGaugeLimit: 64,
		degraded:        make(map[string]string),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(e)
		}
	}
	return e
}

// NextKey issues a fresh join key. Keys are process-unique per engine;
// the predictor passes the same key to RecordActual after actuation.
func (e *Engine) NextKey() uint64 {
	if e == nil {
		return 0
	}
	return e.keys.Add(1)
}

// RecordPrediction registers a decision's completion-time estimate,
// awaiting its actual. Predictions past the TTL (and the oldest beyond
// the pending cap) expire rather than linger.
func (e *Engine) RecordPrediction(p Prediction) {
	if e == nil {
		return
	}
	now := e.clock()
	e.mu.Lock()
	e.expireLocked(now)
	for len(e.pending) >= e.maxPending {
		if !e.expireOldestLocked() {
			break
		}
	}
	e.pending[p.Key] = pendingPred{labels: p.Labels, predicted: p.Predicted, issued: now}
	e.order = append(e.order, p.Key)
	e.mu.Unlock()
	if e.metPending != nil {
		e.metPending.Set(float64(e.Pending()))
	}
}

// RecordActual joins an observed execution time with its prediction.
// ok is false (and the actual counted orphaned) when no prediction
// with that key is outstanding — it never arrived, already joined, or
// expired.
func (e *Engine) RecordActual(key uint64, actual float64) (Join, bool) {
	if e == nil {
		return Join{}, false
	}
	e.mu.Lock()
	p, ok := e.pending[key]
	if !ok {
		e.orphaned++
		e.mu.Unlock()
		if e.metOrphaned != nil {
			e.metOrphaned.Inc()
		}
		return Join{}, false
	}
	delete(e.pending, key)
	e.joined++
	j := Join{Labels: p.labels, Predicted: p.predicted, Actual: actual, Err: p.predicted - actual}

	g := e.groups[p.labels]
	if g == nil {
		g = &groupAgg{
			cal: make([]uint64, len(CalibrationBuckets)+1),
			ph:  newPageHinkley(e.phDelta, e.phLambda, e.phMin),
		}
		e.groups[p.labels] = g
	}
	g.n++
	g.sumErr += j.Err
	g.sumAbsErr += math.Abs(j.Err)
	if actual > 0 {
		g.sumAPE += math.Abs(j.Err) / actual
		g.nAPE++
		ratio := p.predicted / actual
		bi := calBucket(ratio)
		g.cal[bi]++
		e.calAll[bi]++
	}
	var driftEntity string
	if actual > 0 && g.ph.Update(clipRel(math.Abs(j.Err)/actual)) {
		driftEntity = "tenant/" + p.labels.Tenant
		e.alarms++
		e.degraded[driftEntity] = fmt.Sprintf("decision-error drift (selector=%s class=%s after %d joins)",
			p.labels.Selector, p.labels.HostClass, g.n)
	}
	e.mu.Unlock()

	if e.metJoined != nil {
		e.metJoined.Inc()
		e.metErr.Observe(math.Abs(j.Err))
		e.metPending.Set(float64(e.Pending()))
	}
	if driftEntity != "" && e.metAlarms != nil {
		e.metAlarms.Inc()
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Type: obs.EvAudit, Verdict: "join", Tenant: p.labels.Tenant,
			Reason:    p.labels.Selector + "/" + p.labels.HostClass,
			Predicted: p.predicted, Actual: actual})
		if driftEntity != "" {
			e.tracer.Emit(obs.Event{Type: obs.EvAudit, Verdict: "drift", Tenant: p.labels.Tenant,
				Reason: driftEntity})
		}
	}
	return j, true
}

// expireLocked drops pending predictions older than the TTL.
func (e *Engine) expireLocked(now float64) {
	for len(e.order) > 0 {
		k := e.order[0]
		p, live := e.pending[k]
		if live && now-p.issued <= e.ttl {
			return
		}
		e.order = e.order[1:]
		if live {
			delete(e.pending, k)
			e.expired++
			if e.metExpired != nil {
				e.metExpired.Inc()
			}
		}
	}
}

// expireOldestLocked evicts the oldest still-pending prediction; false
// when none remain.
func (e *Engine) expireOldestLocked() bool {
	for len(e.order) > 0 {
		k := e.order[0]
		e.order = e.order[1:]
		if _, live := e.pending[k]; live {
			delete(e.pending, k)
			e.expired++
			if e.metExpired != nil {
				e.metExpired.Inc()
			}
			return true
		}
	}
	return false
}

// calBucket maps a predicted/actual ratio to its calibration bucket
// index (the last index is the overflow bucket).
func calBucket(ratio float64) int {
	for i, b := range CalibrationBuckets {
		if ratio <= b {
			return i
		}
	}
	return len(CalibrationBuckets)
}

// clipRel bounds a relative error so one absurd sample cannot blow a
// drift detector's cumulative state.
func clipRel(v float64) float64 {
	if v > 10 {
		return 10
	}
	return v
}

// Pending reports the outstanding (unjoined, unexpired) predictions.
func (e *Engine) Pending() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Totals reports the join bookkeeping: predictions joined, actuals
// orphaned, predictions expired, and drift alarms raised (decision and
// forecaster detectors combined).
func (e *Engine) Totals() (joined, orphaned, expired, alarms uint64) {
	if e == nil {
		return 0, 0, 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.joined, e.orphaned, e.expired, e.alarms
}

// Health reports the component state for /healthz: "ok", or
// "degraded" with the drift-flagged entities (sorted) as detail.
func (e *Engine) Health() (status string, detail []string) {
	if e == nil {
		return "ok", nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.degraded) == 0 {
		return "ok", nil
	}
	detail = make([]string, 0, len(e.degraded))
	for entity, why := range e.degraded {
		detail = append(detail, entity+": "+why)
	}
	sort.Strings(detail)
	return "degraded", detail
}

// Degraded lists the drift-flagged entities ("tenant/x",
// "series/cpu/alpha1"), sorted.
func (e *Engine) Degraded() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.degraded))
	for entity := range e.degraded {
		out = append(out, entity)
	}
	sort.Strings(out)
	return out
}
