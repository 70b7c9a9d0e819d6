package core

import "apples/internal/grid"

// InfoSnapshot is an immutable, point-in-time resolution of an
// Information source over a fixed host set. The agent takes one snapshot
// per scheduling round and evaluates every candidate resource set against
// it, which
//
//   - removes the repeated Availability/RouteBandwidth/RouteLatency
//     queries the select → plan → estimate loop otherwise issues for the
//     same values (an O(pool²) cost per candidate with forecast-backed
//     sources, since each route query walks links and consults a
//     forecaster bank), and
//   - makes parallel candidate evaluation safe: workers read only the
//     snapshot's frozen maps, never the underlying source, so an
//     Information implementation need not be thread-safe.
//
// Lookups for hosts outside the snapshot fall through to the underlying
// source (this only happens on sequential paths such as re-estimating a
// stale placement whose hosts have since been filtered out).
type InfoSnapshot struct {
	avail  map[string]float64
	bw     map[pairKey]float64
	lat    map[pairKey]float64
	source string
	base   Information
	stats  SnapshotStats
}

type pairKey struct{ a, b string }

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
func SnapshotInformation(info Information, hosts []string) *InfoSnapshot {
	s := &InfoSnapshot{
		avail:  make(map[string]float64, len(hosts)),
		bw:     make(map[pairKey]float64, len(hosts)*len(hosts)),
		lat:    make(map[pairKey]float64, len(hosts)*len(hosts)),
		source: info.Source(),
		base:   info,
	}
	for _, h := range hosts {
		s.avail[h] = finiteAvailability(info.Availability(h))
	}
	if rb, ok := info.(routeBatcher); ok {
		// Batched path: resolve each link's bandwidth once, then compose
		// the per-pair bottleneck mins and latency sums by walking the
		// precomputed routes. Route queries reduce per-link values in
		// route order with the same seed and comparison as the source's
		// own query, so the resulting snapshot is bit-identical to the
		// per-pair path below — just without re-consulting the forecaster
		// bank for every pair sharing a link.
		tp := rb.routeTopology()
		linkBW := make(map[*grid.Link]float64)
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				bw, lat := 1e30, 0.0
				for _, l := range tp.Route(a, b) {
					v, ok := linkBW[l]
					if !ok {
						v = rb.linkBandwidth(l)
						linkBW[l] = v
					}
					if v < bw {
						bw = v
					}
					lat += l.Latency
				}
				k := pairKey{a, b}
				s.bw[k] = bw
				s.lat[k] = lat
			}
		}
		s.stats = SnapshotStats{
			Hosts:         len(hosts),
			Pairs:         len(s.bw),
			SourceQueries: len(hosts) + len(linkBW),
		}
		return s
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			k := pairKey{a, b}
			s.bw[k] = info.RouteBandwidth(a, b)
			s.lat[k] = info.RouteLatency(a, b)
		}
	}
	s.stats = SnapshotStats{
		Hosts:         len(hosts),
		Pairs:         len(s.bw),
		SourceQueries: len(hosts) + 2*len(s.bw),
	}
	return s
}

// Availability implements Information from the frozen map.
func (s *InfoSnapshot) Availability(host string) float64 {
	if v, ok := s.avail[host]; ok {
		return v
	}
	return s.base.Availability(host)
}

// RouteBandwidth implements Information from the frozen map.
func (s *InfoSnapshot) RouteBandwidth(a, b string) float64 {
	if v, ok := s.bw[pairKey{a, b}]; ok {
		return v
	}
	return s.base.RouteBandwidth(a, b)
}

// RouteLatency implements Information from the frozen map.
func (s *InfoSnapshot) RouteLatency(a, b string) float64 {
	if v, ok := s.lat[pairKey{a, b}]; ok {
		return v
	}
	return s.base.RouteLatency(a, b)
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
// Information source that can report what building it cost.
type infoView interface {
	Information
	Stats() SnapshotStats
}

// roundSnapshot is the one snapshot constructor every scheduling path
// resolves through: Coordinator.EvaluateRound, WaitOrRun's union view,
// the ReschedSession cold path, and the SchedService's shared-snapshot
// cache. It extracts the pool's host names (deduplicated, in pool
// order), appends any extra names not already present (WaitOrRun's
// offered hosts), and freezes the view via snapshotInformation — so
// "what does a round see" has exactly one answer regardless of which
// layer asked.
func roundSnapshot(info Information, pool []*grid.Host, extra ...string) infoView {
	names := make([]string, 0, len(pool)+len(extra))
	seen := make(map[string]bool, len(pool)+len(extra))
	for _, h := range pool {
		if !seen[h.Name] {
			seen[h.Name] = true
			names = append(names, h.Name)
		}
	}
	for _, name := range extra {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return snapshotInformation(info, names)
}

// snapshotInformation resolves the information view for one scheduling
// round. Pools up to lazySnapshotThreshold hosts get the fully
// materialized InfoSnapshot; larger pools over a route-batching source
// get a linkSnapshot, which freezes one availability per host and one
// bandwidth per link and composes route values on demand — the same
// values bit for bit (both paths reduce per-link bandwidth in route
// order with the same seed and comparison), at O(hosts + links) source
// queries instead of O(hosts²).
func snapshotInformation(info Information, hosts []string) infoView {
	if len(hosts) > lazySnapshotThreshold {
		if rb, ok := info.(routeBatcher); ok {
			return newLinkSnapshot(info, rb, hosts)
		}
	}
	return SnapshotInformation(info, hosts)
}

// linkSnapshot is the large-pool information view: per-host availability
// and per-link bandwidth are frozen eagerly; per-pair route values are
// composed on demand by walking the topology's precomputed routes over
// the frozen link map. All maps are read-only after construction, so
// parallel evaluation workers share it exactly like an InfoSnapshot.
type linkSnapshot struct {
	tp     *grid.Topology
	avail  map[string]float64
	linkBW map[*grid.Link]float64
	source string
	base   Information
	stats  SnapshotStats
}

func newLinkSnapshot(info Information, rb routeBatcher, hosts []string) *linkSnapshot {
	s := &linkSnapshot{
		tp:     rb.routeTopology(),
		avail:  make(map[string]float64, len(hosts)),
		source: info.Source(),
		base:   info,
	}
	for _, h := range hosts {
		s.avail[h] = finiteAvailability(info.Availability(h))
	}
	links := s.tp.Links()
	s.linkBW = make(map[*grid.Link]float64, len(links))
	for _, l := range links {
		s.linkBW[l] = rb.linkBandwidth(l)
	}
	// Pairs stays 0: nothing pairwise is materialized up front.
	s.stats = SnapshotStats{Hosts: len(hosts), SourceQueries: len(hosts) + len(links)}
	return s
}

// Stats reports how the snapshot was built (Pairs is 0: route values are
// composed lazily).
func (s *linkSnapshot) Stats() SnapshotStats { return s.stats }

// Availability implements Information from the frozen map.
func (s *linkSnapshot) Availability(host string) float64 {
	if v, ok := s.avail[host]; ok {
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
	bw := 1e30
	for _, l := range s.tp.Route(a, b) {
		if v, ok := s.linkBW[l]; ok && v < bw {
			bw = v
		}
	}
	return bw
}

// RouteLatency implements Information: latencies are static link
// properties for every built-in source, so the sum needs no freezing.
func (s *linkSnapshot) RouteLatency(a, b string) float64 {
	if a == b {
		return 0
	}
	lat := 0.0
	for _, l := range s.tp.Route(a, b) {
		lat += l.Latency
	}
	return lat
}

// Source names the underlying source as of snapshot time.
func (s *linkSnapshot) Source() string { return s.source }
