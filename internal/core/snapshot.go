package core

import (
	"math"

	"apples/internal/grid"
)

// InfoSnapshot is a point-in-time resolution of an Information source
// over a fixed host set: the small-pool information view. The agent
// takes one snapshot per scheduling round and evaluates every candidate
// resource set against it, which
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
// A round's snapshot is immutable once built. The one snapshot ever
// modified afterwards is a ReschedSession's own, which its rounds
// refresh in place (refresh); no cache or worker ever shares it.
//
// Lookups for hosts outside the snapshot fall through to the underlying
// source (this only happens on sequential paths such as re-estimating a
// stale placement whose hosts have since been filtered out).
type InfoSnapshot struct {
	pos    map[string]int // host name -> position in the frozen host list
	names  []string       // the frozen host list
	n      int
	avail  []float64 // by position
	lat    []float64 // n×n by position pair (i·n + j); the diagonal is unused
	bw     []float64
	source string
	base   Information
	stats  SnapshotStats

	// Batched sources (routeBatcher) only: each position's index in tp
	// (-1 when tp does not know the host: no route), the links the
	// frozen hosts' routes cross, in the order first crossed, and their
	// bandwidths by grid.Link.Index.
	rb     routeBatcher
	tp     *grid.Topology
	tidx   []int
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
	// Pairs is the number of ordered host pairs resolved (bandwidth and
	// latency each).
	Pairs int
	// SourceQueries counts calls issued to the underlying Information
	// source: one availability per host plus, on the batched path, one
	// bandwidth query per distinct link — or bandwidth+latency per pair
	// on the generic path.
	SourceQueries int
}

// Stats reports how the snapshot was built.
func (s *InfoSnapshot) Stats() SnapshotStats { return s.stats }

// SnapshotInformation resolves every lookup the scheduling round can make
// for the given hosts — one Availability per host, one RouteBandwidth and
// RouteLatency per ordered pair — and freezes them, non-finite
// availabilities as 0. The snapshot reflects the source at call time;
// take a fresh one per scheduling round.
//
// It sets the snapshot up over the distinct names in hosts, in order:
// over a batched source, each position's topology index and the links
// the positions' routes cross. refresh then reads every value.
func SnapshotInformation(info Information, hosts []string) *InfoSnapshot {
	s := &InfoSnapshot{
		pos:    make(map[string]int, len(hosts)),
		names:  make([]string, 0, len(hosts)),
		source: info.Source(),
		base:   info,
	}
	for _, h := range hosts {
		if _, dup := s.pos[h]; !dup {
			s.pos[h] = len(s.names)
			s.names = append(s.names, h)
		}
	}
	n := len(s.names)
	s.n = n
	f := make([]float64, n+2*n*n)
	s.avail, s.lat, s.bw = f[:n:n], f[n:n+n*n:n+n*n], f[n+n*n:]
	pairs := n * (n - 1)
	s.stats = SnapshotStats{Hosts: n, Pairs: pairs, SourceQueries: n + 2*pairs}
	if rb, ok := info.(routeBatcher); ok {
		s.rb, s.tp = rb, rb.routeTopology()
		s.tidx = make([]int, n)
		for i, h := range s.names {
			s.tidx[i] = s.tp.HostIndex(h)
		}
		// Links returns a fresh copy of every link, so its backing holds
		// the crossed ones without growing.
		all := s.tp.Links()
		s.links = all[:0]
		s.linkBW = make([]float64, len(all))
		crossed := make([]bool, len(all))
		for _, ti := range s.tidx {
			for _, tj := range s.tidx {
				if ti < 0 || tj < 0 {
					continue
				}
				for _, l := range s.tp.RouteAt(ti, tj) {
					if li := l.Index(); !crossed[li] {
						crossed[li] = true
						s.links = append(s.links, l)
					}
				}
			}
		}
		s.stats.SourceQueries = n + len(s.links)
	}
	s.refresh(true)
	return s
}

// refresh re-reads every frozen value from the base source in place and
// counts the availabilities and the links (batched sources) or ordered
// pairs (generic sources) whose bits changed; when cold, every value
// counts as changed. Availability is frozen through finiteAvailability,
// route values through finiteRoute. A batched source re-reads the crossed links' bandwidths and, when the
// round is cold or one changed, recomposes every pair by composeRoute
// over them: in route order with the same seed and comparison as the
// source's own route query, so the values are bit-identical to the
// per-pair reads a generic source gets, without re-consulting the
// forecaster bank for every pair that shares a link.
func (s *InfoSnapshot) refresh(cold bool) (changedHosts, changedLinks int) {
	for i, h := range s.names {
		if v := finiteAvailability(s.base.Availability(h)); cold || differ(v, s.avail[i]) {
			s.avail[i] = v
			changedHosts++
		}
	}
	n := s.n
	if s.rb != nil {
		for _, l := range s.links {
			if v, li := s.rb.linkBandwidth(l), l.Index(); cold || differ(v, s.linkBW[li]) {
				s.linkBW[li] = v
				changedLinks++
			}
		}
		if !cold && changedLinks == 0 {
			return changedHosts, 0
		}
		for i, ti := range s.tidx {
			for j, tj := range s.tidx {
				if i == j {
					continue
				}
				lat, bw := 0.0, 1e30
				if ti >= 0 && tj >= 0 {
					lat, bw = composeRoute(s.tp, s.linkBW, ti, tj)
				}
				s.lat[i*n+j], s.bw[i*n+j] = lat, bw
			}
		}
		return changedHosts, changedLinks
	}
	for i, a := range s.names {
		for j, b := range s.names {
			if i == j {
				continue
			}
			k := i*n + j
			lat, bw := finiteRoute(s.base.RouteLatency(a, b), s.base.RouteBandwidth(a, b))
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

// Availability implements Information from the frozen column.
func (s *InfoSnapshot) Availability(host string) float64 {
	if i, ok := s.pos[host]; ok {
		return s.avail[i]
	}
	return s.base.Availability(host)
}

// RouteBandwidth implements Information from the frozen pair array.
func (s *InfoSnapshot) RouteBandwidth(a, b string) float64 {
	if i, j := s.indexOf(a), s.indexOf(b); i >= 0 && j >= 0 && i != j {
		return s.bw[i*s.n+j]
	}
	return s.base.RouteBandwidth(a, b)
}

// RouteLatency implements Information from the frozen pair array.
func (s *InfoSnapshot) RouteLatency(a, b string) float64 {
	if i, j := s.indexOf(a), s.indexOf(b); i >= 0 && j >= 0 && i != j {
		return s.lat[i*s.n+j]
	}
	return s.base.RouteLatency(a, b)
}

// indexOf is the named host's position in the frozen host list, -1
// outside it.
func (s *InfoSnapshot) indexOf(name string) int {
	if i, ok := s.pos[name]; ok {
		return i
	}
	return -1
}

// hostIndex implements routeIndex by the host's position in the frozen
// host list.
func (s *InfoSnapshot) hostIndex(h *grid.Host) int { return s.indexOf(h.Name) }

// availAt implements routeIndex by position: every indexed host is
// frozen.
func (s *InfoSnapshot) availAt(i int) (float64, bool) { return s.avail[i], true }

// routeAt implements routeIndex from the frozen pair arrays.
func (s *InfoSnapshot) routeAt(i, j int) (lat, bw float64) {
	k := i*s.n + j
	return s.lat[k], s.bw[k]
}

// Source names the underlying source as of snapshot time.
func (s *InfoSnapshot) Source() string { return s.source }

// lazySnapshotThreshold is the pool size past which a scheduling round
// freezes per-link values instead of materializing every ordered pair:
// at p hosts the full snapshot stores 2·p·(p−1) route values, which at
// 2048 hosts is ~8.4M map entries per round — far more than any
// heuristic selector will ever read. The same boundary decides whether
// the round evaluates candidates inline or on a worker pool (see
// Coordinator.evaluateRound).
const lazySnapshotThreshold = 64

// infoView is what a scheduling round evaluates against: a frozen
// Information source with dense host addressing that can report what
// building it cost.
type infoView interface {
	Information
	routeIndex
	Stats() SnapshotStats
}

// routeIndex is a frozen view's dense host addressing, which lets a
// round resolve each host once and price it and its pairs by index.
// hostIndex is a host's index in the view, -1 when the view has none;
// routeAt(i, j) returns, for two distinct indexed hosts, exactly the
// RouteLatency and RouteBandwidth the view reports for them by name;
// availAt(i) returns the Availability the view froze for the host at
// index i, and false when it froze none (the view then answers from its
// base source by name).
type routeIndex interface {
	hostIndex(h *grid.Host) int
	routeAt(i, j int) (lat, bw float64)
	availAt(i int) (float64, bool)
}

// roundSnapshot is the one snapshot constructor every scheduling path
// resolves through: Coordinator.evaluateRound, EstimatePlacement,
// WaitOrRun's union view and the SchedService's shared-snapshot cache. It freezes the pool's
// hosts, each once in pool order — so "what does a round see" has
// exactly one answer regardless of which layer asked.
//
// Past lazySnapshotThreshold distinct hosts, over a route-batching
// source whose topology indexes every pool host, the view is a
// linkSnapshot, which freezes one availability per host and one
// bandwidth per link and composes route values on demand — the same
// values bit for bit (both paths reduce per-link bandwidth in route
// order with the same seed and comparison), at O(hosts + links) source
// queries instead of O(hosts²). Smaller pools get the fully
// materialized InfoSnapshot.
func roundSnapshot(info Information, pool []*grid.Host) infoView {
	if len(pool) > lazySnapshotThreshold {
		if rb, ok := info.(routeBatcher); ok {
			if s := newLinkSnapshot(info, rb, pool); s != nil {
				return s
			}
		}
	}
	return SnapshotInformation(info, hostNames(pool))
}

// linkSnapshot is the large-pool information view: per-host availability
// and per-link bandwidth are frozen eagerly; per-pair route values are
// composed on demand by walking the topology's route table over the
// frozen link column. Its dense host index is the topology's, so every
// pool host prices by index, and availability is a column by that
// index. All state is read-only after construction, so parallel
// evaluation workers share it exactly like an InfoSnapshot.
type linkSnapshot struct {
	tp     *grid.Topology
	avail  []float64 // by topology host index
	frozen []bool    // by topology host index: avail holds a frozen value
	linkBW []float64 // by grid.Link.Index
	source string
	base   Information
	stats  SnapshotStats
}

// newLinkSnapshot freezes the availability of pool's hosts, each
// distinct host once in pool order, plus every link's bandwidth. It
// returns nil, having queried nothing, when the topology cannot index a
// pool host or the pool comes to lazySnapshotThreshold distinct hosts
// or fewer.
func newLinkSnapshot(info Information, rb routeBatcher, pool []*grid.Host) *linkSnapshot {
	tp := rb.routeTopology()
	s := &linkSnapshot{
		tp:     tp,
		avail:  make([]float64, tp.NumHosts()),
		frozen: make([]bool, tp.NumHosts()),
		source: info.Source(),
		base:   info,
	}
	// Mark every distinct host with a NaN placeholder first, so the pool
	// can be measured before any query; a frozen availability is never
	// NaN, so the placeholder also marks what is still to query.
	hosts := 0
	for _, h := range pool {
		i := tp.IndexOf(h)
		if i < 0 {
			return nil
		}
		if !s.frozen[i] {
			s.frozen[i], s.avail[i] = true, math.NaN()
			hosts++
		}
	}
	if hosts <= lazySnapshotThreshold {
		return nil
	}
	for _, h := range pool {
		if i := tp.IndexOf(h); math.IsNaN(s.avail[i]) {
			s.avail[i] = finiteAvailability(info.Availability(h.Name))
		}
	}
	links := tp.Links()
	s.linkBW = make([]float64, len(links))
	for i, l := range links {
		s.linkBW[i] = rb.linkBandwidth(l)
	}
	// Pairs stays 0: nothing pairwise is materialized up front.
	s.stats = SnapshotStats{Hosts: hosts, SourceQueries: hosts + len(links)}
	return s
}

// Stats reports how the snapshot was built (Pairs is 0: route values are
// composed lazily).
func (s *linkSnapshot) Stats() SnapshotStats { return s.stats }

// Availability implements Information from the frozen column, resolving
// the name to its topology index.
func (s *linkSnapshot) Availability(host string) float64 {
	if v, ok := s.availAt(s.tp.HostIndex(host)); ok {
		return v
	}
	return s.base.Availability(host)
}

// RouteBandwidth implements Information: the bottleneck min over the
// route's frozen link bandwidths, seeded at 1e30 like every source.
func (s *linkSnapshot) RouteBandwidth(a, b string) float64 {
	if a == b {
		return s.base.RouteBandwidth(a, b)
	}
	_, bw := s.routeNamed(a, b)
	return bw
}

// RouteLatency implements Information: latencies are static link
// properties for every built-in source, so the sum needs no freezing.
func (s *linkSnapshot) RouteLatency(a, b string) float64 {
	if a == b {
		return 0
	}
	lat, _ := s.routeNamed(a, b)
	return lat
}

// routeNamed is routeAt by host name; a host unknown to the topology has
// no route (latency 0, bandwidth 1e30).
func (s *linkSnapshot) routeNamed(a, b string) (lat, bw float64) {
	i, j := s.tp.HostIndex(a), s.tp.HostIndex(b)
	if i < 0 || j < 0 {
		return 0, 1e30
	}
	return s.routeAt(i, j)
}

// hostIndex implements routeIndex with the topology's dense host index,
// read off the host itself when it is the topology's own.
func (s *linkSnapshot) hostIndex(h *grid.Host) int { return s.tp.IndexOf(h) }

// availAt implements routeIndex from the frozen column; an index outside
// it (-1 included) froze nothing.
func (s *linkSnapshot) availAt(i int) (float64, bool) {
	if i < 0 || i >= len(s.frozen) || !s.frozen[i] {
		return 0, false
	}
	return s.avail[i], true
}

// routeAt implements routeIndex by composeRoute over the frozen link
// column.
func (s *linkSnapshot) routeAt(i, j int) (lat, bw float64) {
	return composeRoute(s.tp, s.linkBW, i, j)
}

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

// Source names the underlying source as of snapshot time.
func (s *linkSnapshot) Source() string { return s.source }
