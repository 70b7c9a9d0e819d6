package nws

import (
	"fmt"
	"sort"
	"strings"

	"apples/internal/grid"
	"apples/internal/mstore"
	"apples/internal/obs"
	"apples/internal/sim"
)

// ServiceOption configures a Service at construction.
type ServiceOption func(*Service)

// WithBankFactory replaces the forecaster bank a new sensor starts with
// (NewBank() by default) — e.g. to add windowed AR(1) predictors or to
// sweep window sizes in scaling experiments.
func WithBankFactory(mk func() *Bank) ServiceOption {
	if mk == nil {
		panic("nws: nil bank factory")
	}
	return func(s *Service) { s.newBank = mk }
}

// WithMetrics registers the service's sensing metrics in the registry:
// nws_bank_updates_total counts forecaster-bank absorptions (one per
// watched resource per sweep) and nws_sensor_sweeps_total counts batch
// sweeps. Handles resolve here, once; the sensing hot path adds two
// atomic increments and stays allocation-free. nil leaves metrics off.
func WithMetrics(m *obs.Metrics) ServiceOption {
	return func(s *Service) {
		if m == nil {
			s.metBankUpdates, s.metSweeps = nil, nil
			return
		}
		s.metBankUpdates = m.Counter(obs.MetricBankUpdates)
		s.metSweeps = m.Counter(obs.MetricSensorSweeps)
	}
}

// WithStageTiming attaches a stage timer to the service: every batch
// sensor sweep records its wall-time as a StageSweep span into the
// timer's per-stage histogram family (and as an EvSpan trace event
// when the timer carries a tracer). nil leaves sweep timing off.
func WithStageTiming(st *obs.StageTimer) ServiceOption {
	return func(s *Service) { s.stages = st }
}

// Service is the Network Weather Service instance for one metacomputer:
// it owns periodic sensors for host CPU availability and link bandwidth,
// and answers forecast queries for the scheduling agent.
//
// All sensors share one batch tick: each sensing period fires a single
// engine event that sweeps every watched resource in watch order
// (ObserveAll), so a metacomputer with ten thousand series costs the
// event queue no more than one with ten, and the sweep itself does not
// allocate in steady state.
type Service struct {
	eng     *sim.Engine
	period  float64
	newBank func() *Bank

	cpuBanks map[string]*Bank // host name -> availability series
	bwBanks  map[string]*Bank // link name -> available-bandwidth series
	batch    *sim.BatchTicker // nil until the first Watch (and after Stop)
	hosts    map[string]*grid.Host
	links    map[string]*grid.Link

	watchedHosts map[string]bool
	watchedLinks map[string]bool

	// Metric handles (nil when WithMetrics was not given). sweepHook
	// records that the batch carries a leading sweep-counting callback,
	// which Sensors() must not count as a resource sensor.
	metBankUpdates *obs.Counter
	metSweeps      *obs.Counter
	sweepHook      bool
	// stages, when non-nil, times each batch sweep as a StageSweep span.
	stages *obs.StageTimer
	// store, when non-nil, receives every observed sample as an appended
	// record (WithStore); storeErr latches the first append failure.
	store    *mstore.Store
	storeErr error
	// residuals, when non-nil, receives every sample's forecaster
	// residuals as the bank absorbs it (WithResiduals).
	residuals ResidualSink
}

// NewService creates a service sampling every period seconds of virtual
// time (the real NWS default is 10s for CPU sensors).
func NewService(eng *sim.Engine, period float64, opts ...ServiceOption) *Service {
	if period <= 0 {
		panic("nws: sensor period must be positive")
	}
	s := &Service{
		eng:          eng,
		period:       period,
		newBank:      func() *Bank { return NewBank() },
		cpuBanks:     make(map[string]*Bank),
		bwBanks:      make(map[string]*Bank),
		hosts:        make(map[string]*grid.Host),
		links:        make(map[string]*grid.Link),
		watchedHosts: make(map[string]bool),
		watchedLinks: make(map[string]bool),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// addSensor registers one sampling callback on the shared batch tick,
// creating the tick lazily so an idle service schedules nothing.
func (s *Service) addSensor(kind mstore.Kind, name string, bank *Bank, sample func() float64) {
	if s.batch == nil {
		s.batch = sim.NewBatchTicker(s.eng, s.period)
		s.sweepHook = false
		if s.metSweeps != nil {
			sweeps := s.metSweeps
			s.batch.Add(func(float64) { sweeps.Inc() })
			s.sweepHook = true
		}
		if s.stages != nil {
			st := s.stages
			s.batch.SetAround(func(fire func(float64), now float64) {
				sp := st.Start(0, obs.StageSweep)
				fire(now)
				sp.End()
			})
		}
	}
	updates := s.metBankUpdates
	var feed *residualFeed
	if s.residuals != nil {
		feed = &residualFeed{sink: s.residuals, kind: kind, name: name}
	}
	s.batch.Add(func(float64) {
		v := sample()
		if feed != nil {
			feed.update(bank, v)
		} else {
			bank.Update(v)
		}
		if updates != nil {
			updates.Inc()
		}
		if s.store != nil && s.storeErr == nil {
			// The bank's length is the sample's 1-based position in its
			// series — monotonic across restarts once RestoreFromStore
			// has replayed the history.
			err := s.store.Append(mstore.Record{Kind: kind, Series: name, Tick: uint64(bank.Len()), Value: v})
			if err != nil {
				s.storeErr = err
			}
		}
	})
}

// WatchHost installs a CPU availability sensor on the host. A bank
// warm-started by RestoreFromStore keeps its history; new measurements
// append.
func (s *Service) WatchHost(h *grid.Host) {
	if s.watchedHosts[h.Name] {
		return
	}
	s.watchedHosts[h.Name] = true
	bank := s.cpuBanks[h.Name]
	if bank == nil {
		bank = s.newBank()
		s.cpuBanks[h.Name] = bank
	}
	s.hosts[h.Name] = h
	s.addSensor(mstore.KindCPU, h.Name, bank, h.Availability)
}

// WatchLink installs an available-bandwidth sensor on the link. A bank
// warm-started by RestoreFromStore keeps its history; new measurements
// append.
func (s *Service) WatchLink(l *grid.Link) {
	if s.watchedLinks[l.Name] {
		return
	}
	s.watchedLinks[l.Name] = true
	bank := s.bwBanks[l.Name]
	if bank == nil {
		bank = s.newBank()
		s.bwBanks[l.Name] = bank
	}
	s.links[l.Name] = l
	s.addSensor(mstore.KindBandwidth, l.Name, bank, l.AvailableBandwidth)
}

// WatchTopology installs sensors on every host and link of a topology.
func (s *Service) WatchTopology(tp *grid.Topology) {
	for _, h := range tp.Hosts() {
		s.WatchHost(h)
	}
	for _, l := range tp.Links() {
		s.WatchLink(l)
	}
}

// ObserveAll runs one sensing sweep over every watched resource, in watch
// order. The periodic batch tick calls it each period; benchmarks and
// tests may call it directly to drive sensing without advancing the
// simulation clock.
func (s *Service) ObserveAll(now float64) {
	if s.batch != nil {
		s.batch.Fire(now)
	}
}

// Sensors reports how many resource sensors are currently sampling.
func (s *Service) Sensors() int {
	if s.batch == nil {
		return 0
	}
	n := s.batch.Len()
	if s.sweepHook {
		n-- // the sweep-counting hook is bookkeeping, not a sensor
	}
	return n
}

// Stop halts all sensors (e.g. before draining the simulation). Banks
// stay queryable; a resource watched after Stop starts a fresh batch
// tick covering only newly watched resources, matching the per-sensor
// semantics the service had before batching.
func (s *Service) Stop() {
	if s.batch != nil {
		s.batch.Stop()
		s.batch = nil
	}
}

// AvailabilityForecast predicts the CPU availability (0..1] of a host over
// the scheduling time frame. ok is false if the host is unwatched or the
// sensor has no history yet.
func (s *Service) AvailabilityForecast(host string) (float64, bool) {
	b := s.cpuBanks[host]
	if b == nil || !b.Ready() {
		return 0, false
	}
	v, _, ok := b.Forecast()
	if !ok {
		return 0, false
	}
	return clamp(v, 0.01, 1), true
}

// AvailabilityLongTerm returns the running-mean CPU availability of a
// host — the estimate to use when the scheduled work will run for much
// longer than one sensing period, so that transient load states average
// out (Section 3.2: capability is assessed "for the time frame in which
// the application will be scheduled").
func (s *Service) AvailabilityLongTerm(host string) (float64, bool) {
	b := s.cpuBanks[host]
	if b == nil || b.Len() == 0 {
		return 0, false
	}
	return clamp(b.Mean(), 0.01, 1), true
}

// BandwidthLongTerm returns the running-mean deliverable bandwidth of a
// link (MB/s).
func (s *Service) BandwidthLongTerm(link string) (float64, bool) {
	b := s.bwBanks[link]
	if b == nil || b.Len() == 0 {
		return 0, false
	}
	v := b.Mean()
	if v < 1e-6 {
		v = 1e-6
	}
	return v, true
}

// RouteBandwidthLongTerm is the long-horizon analogue of
// RouteBandwidthForecast.
func (s *Service) RouteBandwidthLongTerm(tp *grid.Topology, a, b string) float64 {
	if a == b {
		return 1e30
	}
	bw := 1e30
	for _, l := range tp.Route(a, b) {
		v, ok := s.BandwidthLongTerm(l.Name)
		if !ok {
			v = l.Bandwidth
		}
		if v < bw {
			bw = v
		}
	}
	return bw
}

// AvailabilityError returns the RMSE of the selected availability
// forecaster for the host, as a trust measure.
func (s *Service) AvailabilityError(host string) (float64, bool) {
	b := s.cpuBanks[host]
	if b == nil {
		return 0, false
	}
	return b.ErrorEstimate()
}

// BandwidthError returns the RMSE of the selected bandwidth forecaster
// for the link, as a trust measure.
func (s *Service) BandwidthError(link string) (float64, bool) {
	b := s.bwBanks[link]
	if b == nil {
		return 0, false
	}
	return b.ErrorEstimate()
}

// BandwidthForecast predicts the deliverable bandwidth (MB/s) of a link.
func (s *Service) BandwidthForecast(link string) (float64, bool) {
	b := s.bwBanks[link]
	if b == nil || !b.Ready() {
		return 0, false
	}
	v, _, ok := b.Forecast()
	if !ok {
		return 0, false
	}
	if v < 1e-6 {
		v = 1e-6
	}
	return v, true
}

// RouteBandwidthForecast predicts the bottleneck bandwidth along the route
// from host a to host b in tp, falling back to dedicated capacity for
// unwatched links.
func (s *Service) RouteBandwidthForecast(tp *grid.Topology, a, b string) float64 {
	if a == b {
		return 1e30
	}
	bw := 1e30
	for _, l := range tp.Route(a, b) {
		v, ok := s.BandwidthForecast(l.Name)
		if !ok {
			v = l.Bandwidth
		}
		if v < bw {
			bw = v
		}
	}
	return bw
}

// CPUBank exposes a host's availability bank (for reports and tests).
func (s *Service) CPUBank(host string) *Bank { return s.cpuBanks[host] }

// LinkBank exposes a link's bandwidth bank (for reports and tests).
func (s *Service) LinkBank(link string) *Bank { return s.bwBanks[link] }

// Report returns a human-readable forecast table for everything watched,
// hosts first then links, each sorted by name.
func (s *Service) Report() string {
	var sb strings.Builder
	hosts := make([]string, 0, len(s.cpuBanks))
	for n := range s.cpuBanks {
		hosts = append(hosts, n)
	}
	sort.Strings(hosts)
	for _, n := range hosts {
		v, by, ok := s.cpuBanks[n].Forecast()
		fmt.Fprintf(&sb, "cpu  %-10s forecast=%6.3f by=%-12s ok=%v\n", n, v, by, ok)
	}
	links := make([]string, 0, len(s.bwBanks))
	for n := range s.bwBanks {
		links = append(links, n)
	}
	sort.Strings(links)
	for _, n := range links {
		v, by, ok := s.bwBanks[n].Forecast()
		fmt.Fprintf(&sb, "bw   %-14s forecast=%7.3f by=%-12s ok=%v\n", n, v, by, ok)
	}
	return sb.String()
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
