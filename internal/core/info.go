package core

import (
	"math"

	"apples/internal/grid"
	"apples/internal/nws"
)

// minAvailability floors forecast CPU availability before any model
// divides by it. A source can legitimately report 0 (a saturated or
// just-registered machine with no history); clamping to 1% keeps every
// per-availability division finite while still pricing such hosts as
// effectively unusable.
const minAvailability = 0.01

// floorAvailability applies the minAvailability division-by-zero guard
// shared by every cost model (strip planner, pruning bound, pipeline
// model, single-site prediction).
func floorAvailability(avail float64) float64 {
	if avail <= 0 {
		return minAvailability
	}
	return avail
}

// finiteAvailability maps a non-finite availability forecast (NaN, ±Inf)
// to 0, a host the source cannot vouch for, and a forecast above 1 to 1,
// the most a host can deliver (Information.Availability's range is
// (0, 1]). Every frozen view (round snapshots and the ReschedSession's
// refreshed view) stores forecasts through it: desirability ranking and
// chain seeding read the raw value, where NaN breaks the sort, +Inf
// ranks a dead host first, and a huge finite value ranks its host first
// while its P_i underflows to 0 or its predicted time to nearly nothing.
func finiteAvailability(avail float64) float64 {
	if math.IsNaN(avail) || math.IsInf(avail, 0) {
		return 0
	}
	return min(avail, 1)
}

// Information is the agent's view of dynamic system state: short-term
// forecasts of deliverable CPU and network performance for the scheduling
// time frame. It abstracts the paper's Information Pool so prediction
// sources can be swapped for ablation.
type Information interface {
	// Availability forecasts the CPU fraction (0, 1] host will deliver.
	Availability(host string) float64
	// RouteBandwidth forecasts the bottleneck MB/s between two hosts.
	RouteBandwidth(a, b string) float64
	// RouteLatency returns the one-way route latency in seconds.
	RouteLatency(a, b string) float64
	// Source names the information source for reports.
	Source() string
}

// routeBatcher is implemented by Information sources whose route queries
// reduce per-link quantities along precomputed topology routes (all the
// built-in sources). It lets SnapshotInformation resolve each link's
// bandwidth once per round and compose the per-pair bottleneck mins from
// that cache — an O(pool² · route length) → O(links) cut in
// forecaster-bank queries, which otherwise dominate snapshot
// construction on large pools.
type routeBatcher interface {
	routeTopology() *grid.Topology
	// linkBandwidth returns the source's bandwidth estimate for one link;
	// a route query is the min over its links, seeded at 1e30.
	linkBandwidth(l *grid.Link) float64
}

// nwsInfo backs Information with Network Weather Service forecasts,
// falling back to static capabilities where no history exists yet.
type nwsInfo struct {
	svc *nws.Service
	tp  *grid.Topology
}

// NWSInformation returns the production information source: NWS forecasts
// over the given topology.
func NWSInformation(svc *nws.Service, tp *grid.Topology) Information {
	return &nwsInfo{svc: svc, tp: tp}
}

func (i *nwsInfo) Availability(host string) float64 {
	if v, ok := i.svc.AvailabilityForecast(host); ok {
		return v
	}
	return 1
}

func (i *nwsInfo) RouteBandwidth(a, b string) float64 {
	return i.svc.RouteBandwidthForecast(i.tp, a, b)
}

func (i *nwsInfo) RouteLatency(a, b string) float64 {
	return i.tp.RouteLatency(a, b)
}

func (i *nwsInfo) Source() string { return "nws" }

func (i *nwsInfo) routeTopology() *grid.Topology { return i.tp }

func (i *nwsInfo) linkBandwidth(l *grid.Link) float64 {
	if v, ok := i.svc.BandwidthForecast(l.Name); ok {
		return v
	}
	return l.Bandwidth
}

// oracleInfo reads the simulator's true instantaneous state — the
// unattainable upper bound on prediction quality.
type oracleInfo struct {
	tp *grid.Topology
}

// OracleInformation returns a perfect-knowledge information source for
// ablation experiments.
func OracleInformation(tp *grid.Topology) Information {
	return &oracleInfo{tp: tp}
}

func (i *oracleInfo) Availability(host string) float64 {
	h := i.tp.Host(host)
	if h == nil {
		return 1
	}
	return h.Availability()
}

func (i *oracleInfo) RouteBandwidth(a, b string) float64 {
	return i.tp.RouteBandwidth(a, b)
}

func (i *oracleInfo) RouteLatency(a, b string) float64 {
	return i.tp.RouteLatency(a, b)
}

func (i *oracleInfo) Source() string { return "oracle" }

func (i *oracleInfo) routeTopology() *grid.Topology { return i.tp }

func (i *oracleInfo) linkBandwidth(l *grid.Link) float64 { return l.AvailableBandwidth() }

// staticInfo assumes every resource is dedicated — the compile-time
// assumption embodied by the paper's static Strip and Blocked baselines.
type staticInfo struct {
	tp *grid.Topology
}

// StaticInformation returns the no-dynamic-information source.
func StaticInformation(tp *grid.Topology) Information {
	return &staticInfo{tp: tp}
}

func (i *staticInfo) Availability(string) float64 { return 1 }

func (i *staticInfo) RouteBandwidth(a, b string) float64 {
	return i.tp.RouteDedicatedBandwidth(a, b)
}

func (i *staticInfo) RouteLatency(a, b string) float64 {
	return i.tp.RouteLatency(a, b)
}

func (i *staticInfo) Source() string { return "static" }

func (i *staticInfo) routeTopology() *grid.Topology { return i.tp }

func (i *staticInfo) linkBandwidth(l *grid.Link) float64 { return l.Bandwidth }
