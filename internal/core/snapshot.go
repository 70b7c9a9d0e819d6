package core

import (
	"math"

	"apples/internal/grid"
)

// InfoSnapshot is a point-in-time resolution of an Information source
// over a fixed host list: the one frozen view every scheduling round,
// the SchedService's shared snapshots, EstimatePlacement and every
// ReschedSession read. The agent takes one snapshot per scheduling round
// and evaluates every candidate resource set against it, which
//
//   - removes the repeated Availability/RouteBandwidth/RouteLatency
//     queries the select → plan → estimate loop otherwise issues for the
//     same values (an O(pool²) cost per candidate with forecast-backed
//     sources, since each route query walks links and consults a
//     forecaster bank), and
//   - makes parallel candidate evaluation safe: workers read only the
//     snapshot's frozen values, never the underlying source, so an
//     Information implementation need not be thread-safe.
//
// Its positions are the distinct hosts in order, so a view built over a
// host pool is indexed by that pool's index: position i is pool[i].
// Availability is one column by position. Routes follow one of two
// policies, chosen by the number of positions:
//
//   - over a batched source (routeBatcher) with at most
//     lazySnapshotThreshold positions, it freezes the links the
//     positions' routes cross and materializes every ordered pair;
//   - over a batched source with more, it freezes every topology link
//     and composes each pair on demand (composeRoute), so a 2048-host
//     round reads O(hosts + links) values instead of O(hosts²);
//   - over any other source it reads and materializes pair by pair.
//
// A round's snapshot is immutable once built. The one snapshot ever
// modified afterwards is a ReschedSession's own, which its rounds
// refresh in place (refresh); no cache or worker ever shares it.
//
// Lookups by name answer from the frozen values for the snapshot's own
// hosts and fall through to the underlying source for any other host.
type InfoSnapshot struct {
	hosts []*grid.Host // the frozen host list: position i is hosts[i]
	// A host's position: by its index in tp (1 + position, 0 for none)
	// when a batched source's list is longer than lazySnapshotThreshold,
	// so a large view keeps no map keyed by name; by name in pos for
	// every other host.
	at  []int32
	pos map[string]int

	avail  []float64 // by position
	lat    []float64 // n×n by position pair (i·n + j); nil when composed on demand
	bw     []float64
	source string
	base   Information
	stats  SnapshotStats

	// Batched sources (routeBatcher) only: the links frozen (those the
	// positions' routes cross when pairs are materialized, every link
	// otherwise) and their bandwidths by grid.Link.Index.
	rb     routeBatcher
	tp     *grid.Topology
	links  []*grid.Link
	linkBW []float64
}

// SnapshotStats reports what building a snapshot cost: how much was
// resolved and how many queries actually reached the underlying source.
// The decision trace's snapshot event carries these numbers, making the
// batched route path's query savings visible (Queries < 2·Pairs when
// pairs share links).
type SnapshotStats struct {
	// Hosts is the number of availability lookups frozen.
	Hosts int
	// Pairs is the number of ordered host pairs materialized (bandwidth
	// and latency each); 0 when routes are composed on demand.
	Pairs int
	// SourceQueries counts calls issued to the underlying Information
	// source: one availability per host plus, on the batched path, one
	// bandwidth query per frozen link — or bandwidth+latency per pair
	// on the generic path.
	SourceQueries int
}

// Stats reports how the snapshot was built.
func (s *InfoSnapshot) Stats() SnapshotStats { return s.stats }

// SnapshotInformation resolves every lookup the scheduling round can make
// for the named hosts and freezes it, non-finite availabilities as 0
// (see InfoSnapshot for the route policies). The snapshot reflects the
// source at call time; take a fresh one per scheduling round. A name the
// batched source's topology knows stands for that host; any other name
// has no route there.
func SnapshotInformation(info Information, hosts []string) *InfoSnapshot {
	var tp *grid.Topology
	if rb, ok := info.(routeBatcher); ok {
		tp = rb.routeTopology()
	}
	pool := make([]*grid.Host, len(hosts))
	for i, name := range hosts {
		if tp != nil {
			pool[i] = tp.Host(name)
		}
		if pool[i] == nil {
			pool[i] = &grid.Host{Name: name}
		}
	}
	return roundSnapshot(info, pool)
}

// roundSnapshot is the one snapshot constructor every scheduling path
// resolves through: Coordinator.evaluateRound, EstimatePlacement,
// WaitOrRun's union view, the SchedService's shared-snapshot cache and
// ReschedSession. It freezes pool's distinct hosts, each once in pool
// order, so "what does a round see" has exactly one answer regardless of
// which layer asked. The snapshot keeps pool as its host list when pool
// holds no duplicate; the caller must not modify it afterwards.
func roundSnapshot(info Information, pool []*grid.Host) *InfoSnapshot {
	s := &InfoSnapshot{source: info.Source(), base: info}
	if rb, ok := info.(routeBatcher); ok {
		s.rb, s.tp = rb, rb.routeTopology()
	}
	s.index(pool)
	n := len(s.hosts)
	s.stats = SnapshotStats{Hosts: n}
	if s.rb != nil && n > lazySnapshotThreshold {
		s.avail = make([]float64, n)
	} else {
		f := make([]float64, n+2*n*n)
		s.avail, s.lat, s.bw = f[:n:n], f[n:n+n*n:n+n*n], f[n+n*n:]
		s.stats.Pairs = n * (n - 1)
	}
	s.stats.SourceQueries = n + 2*s.stats.Pairs
	if s.rb != nil {
		s.links = s.tp.Links()
		s.linkBW = make([]float64, len(s.links))
		if s.lat != nil {
			s.links = s.crossedLinks()
		}
		s.stats.SourceQueries = n + len(s.links)
	}
	s.refresh(true)
	return s
}

// index sets up the positions: pool's distinct hosts in order (pool
// itself when it holds no duplicate) and each one's entry in at or pos.
func (s *InfoSnapshot) index(pool []*grid.Host) {
	if s.tp != nil && len(pool) > lazySnapshotThreshold {
		s.at = make([]int32, s.tp.NumHosts())
	} else {
		s.pos = make(map[string]int, len(pool))
	}
	s.hosts = pool
	dup := false
	for k, h := range pool {
		ti := -1
		if s.at != nil {
			ti = s.tp.IndexOf(h)
		}
		if s.positionOf(ti, h.Name) >= 0 {
			if !dup {
				s.hosts, dup = append(make([]*grid.Host, 0, len(pool)), pool[:k]...), true
			}
			continue
		}
		p := k
		if dup {
			p = len(s.hosts)
			s.hosts = append(s.hosts, h)
		}
		if ti >= 0 {
			s.at[ti] = int32(p + 1)
		} else {
			if s.pos == nil {
				s.pos = make(map[string]int)
			}
			s.pos[h.Name] = p
		}
	}
}

// crossedLinks filters s.links, every topology link, down to those the
// positions' routes cross, in the order first crossed. It filters in
// place: Links returns a fresh copy.
func (s *InfoSnapshot) crossedLinks() []*grid.Link {
	crossed := make([]bool, len(s.links))
	out := s.links[:0]
	var buf [lazySnapshotThreshold]int
	tidx := s.topoIndices(buf[:0])
	for _, ti := range tidx {
		for _, tj := range tidx {
			if ti < 0 || tj < 0 {
				continue
			}
			for _, l := range s.tp.RouteAt(ti, tj) {
				if li := l.Index(); !crossed[li] {
					crossed[li] = true
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// refresh re-reads every frozen value from the base source in place and
// counts the availabilities and the links (batched sources) or ordered
// pairs (generic sources) whose bits changed; when cold, every value
// counts as changed. Availability is frozen through finiteAvailability,
// route values through finiteRoute. A batched source re-reads the frozen
// links' bandwidths and, when pairs are materialized and the round is
// cold or a link changed, recomposes every pair by composeRoute over
// them: in route order with the same seed and comparison as the source's
// own route query, so the values are bit-identical to the per-pair reads
// a generic source gets, without re-consulting the forecaster bank for
// every pair that shares a link.
func (s *InfoSnapshot) refresh(cold bool) (changedHosts, changedLinks int) {
	for i, h := range s.hosts {
		if v := finiteAvailability(s.base.Availability(h.Name)); cold || differ(v, s.avail[i]) {
			s.avail[i] = v
			changedHosts++
		}
	}
	n := len(s.hosts)
	if s.rb != nil {
		for _, l := range s.links {
			if v, li := s.rb.linkBandwidth(l), l.Index(); cold || differ(v, s.linkBW[li]) {
				s.linkBW[li] = v
				changedLinks++
			}
		}
		if s.lat == nil || !cold && changedLinks == 0 {
			return changedHosts, changedLinks
		}
		var buf [lazySnapshotThreshold]int
		tidx := s.topoIndices(buf[:0])
		for i, ti := range tidx {
			for j, tj := range tidx {
				if i != j {
					s.lat[i*n+j], s.bw[i*n+j] = s.compose(ti, tj)
				}
			}
		}
		return changedHosts, changedLinks
	}
	for i, a := range s.hosts {
		for j, b := range s.hosts {
			if i == j {
				continue
			}
			k := i*n + j
			lat, bw := finiteRoute(s.base.RouteLatency(a.Name, b.Name), s.base.RouteBandwidth(a.Name, b.Name))
			if cold || differ(bw, s.bw[k]) || differ(lat, s.lat[k]) {
				s.bw[k], s.lat[k] = bw, lat
				changedLinks++
			}
		}
	}
	return changedHosts, changedLinks
}

// differ reports whether two frozen values differ in their bits, so a
// NaN that stays NaN reads as unchanged.
func differ(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// topoIndices appends each position's index in tp (-1 when tp does not
// know the host) to dst. Pairs are materialized only up to
// lazySnapshotThreshold positions, so callers that materialize pass a
// stack buffer of that size and the round allocates nothing for it.
func (s *InfoSnapshot) topoIndices(dst []int) []int {
	for _, h := range s.hosts {
		dst = append(dst, s.tp.IndexOf(h))
	}
	return dst
}

// compose composes the route between the hosts with indices ti and tj
// in tp over the frozen link column; a host tp does not know (-1) has no
// route (latency 0, bandwidth 1e30).
func (s *InfoSnapshot) compose(ti, tj int) (lat, bw float64) {
	if ti < 0 || tj < 0 {
		return 0, 1e30
	}
	return composeRoute(s.tp, s.linkBW, ti, tj)
}

// Availability implements Information from the frozen column.
func (s *InfoSnapshot) Availability(host string) float64 {
	if i := s.indexOf(host); i >= 0 {
		return s.avail[i]
	}
	return s.base.Availability(host)
}

// RouteBandwidth implements Information from the frozen routes.
func (s *InfoSnapshot) RouteBandwidth(a, b string) float64 {
	if i, j := s.indexOf(a), s.indexOf(b); i >= 0 && j >= 0 && i != j {
		_, bw := s.routeAt(i, j)
		return bw
	}
	return s.base.RouteBandwidth(a, b)
}

// RouteLatency implements Information from the frozen routes.
func (s *InfoSnapshot) RouteLatency(a, b string) float64 {
	if i, j := s.indexOf(a), s.indexOf(b); i >= 0 && j >= 0 && i != j {
		lat, _ := s.routeAt(i, j)
		return lat
	}
	return s.base.RouteLatency(a, b)
}

// indexOf is the named host's position, -1 outside the view.
func (s *InfoSnapshot) indexOf(name string) int {
	ti := -1
	if s.at != nil {
		ti = s.tp.HostIndex(name)
	}
	return s.positionOf(ti, name)
}

// positionOf is the position of the host with index ti in tp (-1 when
// tp does not know it or at is not set up) and the given name, -1
// outside the view.
func (s *InfoSnapshot) positionOf(ti int, name string) int {
	if ti >= 0 {
		return int(s.at[ti]) - 1
	}
	if i, ok := s.pos[name]; ok {
		return i
	}
	return -1
}

// routeAt returns the frozen latency and bandwidth between the hosts at
// two distinct positions: exactly what RouteLatency and RouteBandwidth
// report for them by name.
func (s *InfoSnapshot) routeAt(i, j int) (lat, bw float64) {
	if s.lat == nil {
		return s.compose(s.tp.IndexOf(s.hosts[i]), s.tp.IndexOf(s.hosts[j]))
	}
	k := i*len(s.hosts) + j
	return s.lat[k], s.bw[k]
}

// Source names the underlying source as of snapshot time.
func (s *InfoSnapshot) Source() string { return s.source }

// lazySnapshotThreshold is the number of positions past which a snapshot
// over a batched source composes routes on demand instead of
// materializing every ordered pair: at p hosts the pair arrays hold
// 2·p·(p−1) route values, which at 2048 hosts is ~8.4M values per round
// — far more than any heuristic selector will ever read. Below it the
// pair arrays win: composing on demand at 8 and 12 hosts made
// BenchmarkEvaluate and BenchmarkResched rounds slower. The same
// boundary decides whether the round evaluates candidates inline or on
// a worker pool (see Coordinator.evaluateRound).
const lazySnapshotThreshold = 64

// composeRoute composes the route between topology hosts i and j in
// one walk: latencies summed and the bottleneck min over linkBW (by
// grid.Link.Index) seeded at 1e30, both in route order, then frozen
// through finiteRoute.
func composeRoute(tp *grid.Topology, linkBW []float64, i, j int) (lat, bw float64) {
	bw = 1e30
	for _, l := range tp.RouteAt(i, j) {
		if v := linkBW[l.Index()]; v < bw {
			bw = v
		}
		lat += l.Latency
	}
	return finiteRoute(lat, bw)
}

// Route forecasts outside these bounds freeze at them (finiteRoute).
const (
	// maxRouteLatency is one million seconds, about what transferCost
	// charges a dead route for its nominal megabyte.
	maxRouteLatency = 1e6
	// deadRouteBandwidth is the MB/s borderSec and transferCost floor a
	// dead route's bandwidth at.
	deadRouteBandwidth = 1e-6
)

// finiteRoute maps a route's forecasts to values the strip kernel
// prices as finite border costs, the way finiteAvailability maps a
// host's: a latency that is not finite or exceeds maxRouteLatency
// freezes as maxRouteLatency, and a bandwidth that is NaN or below
// deadRouteBandwidth as 0, a dead route. An infinite border cost would
// make the balancer's row rounding loop without end.
func finiteRoute(lat, bw float64) (float64, float64) {
	if math.IsInf(lat, 0) || !(lat <= maxRouteLatency) {
		lat = maxRouteLatency
	}
	if !(bw >= deadRouteBandwidth) {
		bw = 0
	}
	return lat, bw
}
