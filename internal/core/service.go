package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"apples/internal/obs"
)

// SchedService is the multi-tenant scheduling daemon: many AppLeS
// agents, one information pool. It answers the paper's closing open
// question operationally — what happens when thousands of
// application-level schedulers compete for the same resources — by
// restructuring the per-agent round pipeline into shared service
// machinery:
//
//   - snapshot layer: concurrent tenant rounds in one tick share one
//     frozen information view through a copy-on-write snapshotCache
//     (one routeBatcher pass over the forecaster bank, immutable
//     fan-out) instead of N independent freezes;
//   - runner layer: concurrency lives across requests — up to
//     WithServiceRunners rounds run at once, each the same agent round
//     a standalone Schedule runs (inline on pools up to 64 hosts,
//     GOMAXPROCS workers above), so evaluation goroutines stay bounded
//     by runners × (GOMAXPROCS + 1) however many tenants register;
//   - service layer: a bounded admission queue with typed backpressure
//     (ErrQueueFull) and deterministic per-tenant round ordering —
//     one tenant's rounds complete in submission order, always;
//   - observability layer: per-tenant labeled metrics, queue depth,
//     the shared-snapshot ratio, and a max/min fairness gauge computed
//     when the registry is rendered.
//
// Registered tenants are thin clients: a tenant's round is exactly
// Agent.Schedule evaluated against the shared view (the single-tenant
// parity suite pins bit-identity).
//
// All methods are safe for concurrent use.
type SchedService struct {
	cfg serviceConfig

	cache *snapshotCache

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []string // registration order: deterministic reporting
	closed  bool

	// queued is the admission count: requests accepted but not yet
	// completed. Submissions that would push it past queueDepth bounce
	// with ErrQueueFull before enqueueing anything.
	queued atomic.Int64
	reqWG  sync.WaitGroup // one count per admitted request, for drain

	// Dispatch state: tenants with pending work, served FIFO by the
	// runner goroutines. A tenant appears at most once (Tenant.active),
	// which is what serializes its rounds.
	dmu   sync.Mutex
	dcond *sync.Cond
	ready []*Tenant
	stop  bool
	wg    sync.WaitGroup // runner goroutines

	met    *serviceMetrics
	tracer obs.Tracer
}

// serviceConfig is the construction-time target of ServiceOption.
type serviceConfig struct {
	queueDepth int
	runners    int
	metrics    *obs.Metrics
	tracer     obs.Tracer
}

// ServiceOption configures a SchedService at construction.
type ServiceOption func(*serviceConfig)

// WithQueueDepth bounds the admission queue: at most n requests may be
// admitted-but-unfinished at once; further submissions fail fast with
// ErrQueueFull. Default 1024.
func WithQueueDepth(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n > 0 {
			c.queueDepth = n
		}
	}
}

// WithServiceRunners sets how many rounds the service evaluates
// concurrently (default GOMAXPROCS). Distinct tenants' rounds run in
// parallel up to this; one tenant's rounds never do.
func WithServiceRunners(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n > 0 {
			c.runners = n
		}
	}
}

// WithServiceMetrics registers the service's metric families — per-
// tenant round counters and latency histograms, queue depth, snapshot
// sharing, fairness — in the given registry. Tenant agents may share
// the same registry for their round metrics; all handles are atomic.
func WithServiceMetrics(m *obs.Metrics) ServiceOption {
	return func(c *serviceConfig) { c.metrics = m }
}

// WithServiceTracer attaches a decision-trace sink: the service emits
// one EvTenantRound per completed round. Tenant agents may share the
// same tracer for their per-round events.
func WithServiceTracer(t obs.Tracer) ServiceOption {
	return func(c *serviceConfig) { c.tracer = t }
}

// serviceMetrics holds the service-level handles, resolved once.
type serviceMetrics struct {
	reg        *obs.Metrics
	queueDepth *obs.Gauge
	rejected   *obs.Counter
	shared     *obs.Gauge
	builds     *obs.Counter
	reused     *obs.Counter
	fairness   *obs.Gauge
}

// NewSchedService starts the service's runner goroutines and returns
// it ready for Register. Close releases them.
func NewSchedService(opts ...ServiceOption) *SchedService {
	cfg := serviceConfig{
		queueDepth: 1024,
		runners:    runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	s := &SchedService{
		cfg:     cfg,
		cache:   newSnapshotCache(),
		tenants: make(map[string]*Tenant),
		tracer:  cfg.tracer,
	}
	s.dcond = sync.NewCond(&s.dmu)
	if m := cfg.metrics; m != nil {
		s.met = &serviceMetrics{
			reg:        m,
			queueDepth: m.Gauge(obs.MetricQueueDepth),
			rejected:   m.Counter(obs.MetricQueueRejected),
			shared:     m.Gauge(obs.MetricSnapshotShared),
			builds:     m.Counter(obs.MetricSnapshotBuilds),
			reused:     m.Counter(obs.MetricSnapshotReused),
			fairness:   m.Gauge(obs.MetricTenantFairness),
		}
		// Fairness walks every tenant under the service lock, so it is
		// computed when the registry is exposed, not on every round.
		m.OnCollect(func() { s.met.fairness.Set(s.Fairness()) })
	}
	s.wg.Add(cfg.runners)
	for i := 0; i < cfg.runners; i++ {
		go s.runner()
	}
	return s
}

// Tenant is one registered client of the service: an application-level
// scheduling agent whose rounds the service runs against the shared
// snapshot pool, in strict submission order.
type Tenant struct {
	svc   *SchedService
	id    string
	agent *Agent

	qmu    sync.Mutex
	fifo   []roundRequest
	active bool   // queued in svc.ready or being served
	subSeq uint64 // submission sequence, assigned under qmu

	done atomic.Uint64  // completed rounds
	met  *tenantMetrics // labeled series, resolved at registration
}

// tenantMetrics are a tenant's labeled series
// (`sched_tenant_rounds_total{tenant=...}` and the matching latency
// histogram), the per-tenant face of the coordinator's existing round
// metrics.
type tenantMetrics struct {
	rounds  *obs.Counter
	latency *obs.Histogram
}

// roundRequest is one queued scheduling request.
type roundRequest struct {
	n   int
	seq uint64
	ch  chan RoundResult
}

// RoundResult is one completed service round.
type RoundResult struct {
	// Tenant and Seq identify the round: Seq is the tenant-local
	// submission sequence (starting at 1), and results for one tenant
	// always complete in Seq order.
	Tenant string
	Seq    uint64
	// Schedule is the decision; Err the failure (exactly what the
	// standalone Agent.Schedule would return).
	Schedule *Schedule
	Err      error
	// SharedSnapshot reports whether the round reused a cache-shared
	// frozen view rather than freezing its own.
	SharedSnapshot bool
	// Elapsed is the round's wall time once a service worker takes it
	// off the ready list: snapshot acquire and evaluation.
	// It excludes the wait in the admission queue.
	Elapsed time.Duration
}

// Register adds an Agent-backed tenant under a unique id. The agent's
// rounds evaluate against cache-shared snapshots; otherwise each is the
// agent's own Schedule round.
func (s *SchedService) Register(id string, agent *Agent) (*Tenant, error) {
	if agent == nil {
		return nil, fmt.Errorf("core: nil agent for tenant %q", id)
	}
	if id == "" {
		return nil, fmt.Errorf("core: empty tenant id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: %w", ErrServiceClosed)
	}
	if _, dup := s.tenants[id]; dup {
		return nil, fmt.Errorf("core: tenant %q already registered", id)
	}
	t := &Tenant{svc: s, id: id, agent: agent}
	if s.met != nil {
		// Per-tenant labeled series, resolved once here so the round hot
		// path only performs atomic updates.
		t.met = &tenantMetrics{
			rounds:  s.met.reg.Counter(obs.NameWithLabels(obs.MetricTenantRounds, "tenant", id)),
			latency: s.met.reg.Histogram(obs.NameWithLabels(obs.MetricTenantRoundSeconds, "tenant", id), nil),
		}
	}
	s.tenants[id] = t
	s.order = append(s.order, id)
	return t, nil
}

// ID returns the tenant's registered id.
func (t *Tenant) ID() string { return t.id }

// Rounds returns how many of the tenant's rounds have completed.
func (t *Tenant) Rounds() uint64 { return t.done.Load() }

// Pending returns how many of the tenant's requests are queued or in
// flight.
func (t *Tenant) Pending() int {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	n := len(t.fifo)
	if t.active {
		n++ // the request currently being served left the fifo
	}
	return n
}

// Submit enqueues one scheduling round for an n×n problem. It returns a
// buffered channel that receives exactly one RoundResult, or fails fast
// with ErrQueueFull / ErrServiceClosed. Results for one tenant are
// delivered in submission order.
func (t *Tenant) Submit(n int) (<-chan RoundResult, error) {
	s := t.svc
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive problem size %d", n)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("core: %w", ErrServiceClosed)
	}
	if s.queued.Add(1) > int64(s.cfg.queueDepth) {
		s.queued.Add(-1)
		if s.met != nil {
			s.met.rejected.Inc()
		}
		return nil, fmt.Errorf("core: %w (depth %d)", ErrQueueFull, s.cfg.queueDepth)
	}
	s.reqWG.Add(1)
	if s.met != nil {
		s.met.queueDepth.Set(float64(s.queued.Load()))
	}
	ch := make(chan RoundResult, 1)
	t.qmu.Lock()
	t.subSeq++
	t.fifo = append(t.fifo, roundRequest{n: n, seq: t.subSeq, ch: ch})
	wake := !t.active
	if wake {
		t.active = true
	}
	t.qmu.Unlock()
	if wake {
		s.enqueue(t)
	}
	return ch, nil
}

// Schedule submits one round and blocks for its result.
func (t *Tenant) Schedule(n int) (*Schedule, error) {
	ch, err := t.Submit(n)
	if err != nil {
		return nil, err
	}
	res := <-ch
	return res.Schedule, res.Err
}

// enqueue hands a newly active tenant to the runners.
func (s *SchedService) enqueue(t *Tenant) {
	s.dmu.Lock()
	s.ready = append(s.ready, t)
	s.dmu.Unlock()
	s.dcond.Signal()
}

// runner is one service worker loop: pop the next ready tenant, serve
// its head request, repeat.
func (s *SchedService) runner() {
	defer s.wg.Done()
	for {
		s.dmu.Lock()
		for len(s.ready) == 0 && !s.stop {
			s.dcond.Wait()
		}
		if len(s.ready) == 0 {
			s.dmu.Unlock()
			return
		}
		t := s.ready[0]
		s.ready = s.ready[1:]
		s.dmu.Unlock()
		s.serveTenant(t)
	}
}

// serveTenant runs the tenant's head request and re-queues the tenant
// if more are waiting. Because a tenant is in the ready list at most
// once and re-enqueues only after its round completes, one tenant's
// rounds are strictly serialized — the deterministic per-tenant
// ordering the admission contract promises.
func (s *SchedService) serveTenant(t *Tenant) {
	t.qmu.Lock()
	req := t.fifo[0]
	t.fifo = t.fifo[1:]
	t.qmu.Unlock()

	res := s.runRound(t, req)

	// Leave the queue before answering, so a caller that reads the
	// depth after its result never counts its own request.
	s.queued.Add(-1)
	if s.met != nil {
		s.met.queueDepth.Set(float64(s.queued.Load()))
	}
	req.ch <- res
	s.reqWG.Done()

	t.qmu.Lock()
	more := len(t.fifo) > 0
	if !more {
		t.active = false
	}
	t.qmu.Unlock()
	if more {
		s.enqueue(t)
	}
}

// runRound evaluates one round: resolve the shared snapshot, run the
// tenant's scheduler, publish observability.
func (s *SchedService) runRound(t *Tenant, req roundRequest) RoundResult {
	start := time.Now()
	res := RoundResult{Tenant: t.id, Seq: req.seq}

	var entry *snapEntry
	var view infoView
	if pool := t.agent.hp.hosts; len(pool) > 0 {
		entry, res.SharedSnapshot = s.cache.acquire(t.agent.coord.info, pool)
		view = entry.view
	}
	res.Schedule, res.Err = t.agent.scheduleWith(req.n, view)
	if entry != nil && s.met != nil {
		if res.SharedSnapshot {
			s.met.reused.Inc()
		} else {
			s.met.builds.Inc()
		}
	}
	res.Elapsed = time.Since(start)
	t.done.Add(1)

	if s.met != nil {
		t.met.rounds.Inc()
		t.met.latency.Observe(res.Elapsed.Seconds())
		s.met.shared.Set(s.cache.ratio())
	}
	if s.tracer != nil {
		e := obs.Event{Type: obs.EvTenantRound, Tenant: t.id, Round: t.done.Load(),
			SharedSnap: res.SharedSnapshot, Seconds: res.Elapsed.Seconds()}
		if res.Schedule != nil {
			e.Hosts = res.Schedule.Hosts
			e.Predicted = res.Schedule.PredictedTotal
		} else if res.Err != nil {
			e.Reason = res.Err.Error()
		}
		s.tracer.Emit(e)
	}
	return res
}

// TenantStatus is one row of the service's tenant report (the /tenants
// endpoint's JSON schema).
type TenantStatus struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"` // always "agent"
	Rounds  uint64 `json:"rounds"`
	Pending int    `json:"pending"`
}

// Tenants reports every registered tenant in registration order.
func (s *SchedService) Tenants() []TenantStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TenantStatus, 0, len(s.order))
	for _, id := range s.order {
		t := s.tenants[id]
		out = append(out, TenantStatus{ID: id, Kind: "agent", Rounds: t.done.Load(), Pending: t.Pending()})
	}
	return out
}

// Tenant looks up a registered tenant by id.
func (s *SchedService) Tenant(id string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	return t, ok
}

// QueueDepth returns the admitted-but-unfinished request count.
func (s *SchedService) QueueDepth() int { return int(s.queued.Load()) }

// SharedRatio returns the running fraction of Agent-backed rounds that
// reused a cache-shared snapshot (0 until the first such round).
func (s *SchedService) SharedRatio() float64 { return s.cache.ratio() }

// Fairness returns max/min completed rounds across tenants that have
// finished at least one round: 1 is perfectly fair, large values mean
// some tenant is starving relative to another. 0 means no data yet.
func (s *SchedService) Fairness() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var mn, mx uint64
	for _, id := range s.order {
		v := s.tenants[id].done.Load()
		if v == 0 {
			continue
		}
		if mn == 0 || v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn == 0 {
		return 0
	}
	return float64(mx) / float64(mn)
}

// InvalidateSnapshots retires every cache-shared snapshot; subsequent
// rounds freeze fresh views. Call when the underlying information may
// have moved (e.g. after advancing simulated time).
func (s *SchedService) InvalidateSnapshots() { s.cache.Invalidate() }

// Close drains and shuts down: no new submissions are admitted, every
// already-admitted request completes and receives its result, then the
// runner goroutines exit. Safe to call twice.
func (s *SchedService) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	s.reqWG.Wait()

	s.dmu.Lock()
	s.stop = true
	s.dmu.Unlock()
	s.dcond.Broadcast()
	s.wg.Wait()
}
