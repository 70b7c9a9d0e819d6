package core

import (
	"math"
	"slices"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/userspec"
)

// The one per-host input path of the strip cost model: hostPool (static,
// per pool set-up), poolCols (dynamic, per round) and stripKernel.feed
// (per chain). Agent rounds, their bound, EstimatePlacement and every
// ReschedSession price hosts through it.

// hostPool is a filtered host pool with every static per-host
// coefficient the strip cost model and the selectors read, resolved
// once at pool set-up (NewAgent, WaitOrRun's dedicated agent, and an
// estimate's worked hosts) and read-only afterwards, so concurrent
// rounds and sessions over the pool share it. Every column is indexed
// by pool index, the host's position in hosts.
type hostPool struct {
	hosts []*grid.Host
	at    []int // by Host.Index: 1 + the pool index of that host, 0 for none

	factor []float64 // implementation speed factor on the host's arch
	capPts []float64 // memory capacity in points (0 = unbounded)
	memMB  []float64 // physical memory for the spill check
	rate   []float64 // user cost rate, as the kernel prices it (0 as 1)

	nameRank []int       // an int that orders like the host name
	sites    siteGrouper // site ids; each model clones its own scratch
}

// newHostPool sets up hosts for task under spec: the implementation
// factor, memory capacity and cost rate of every host, its name rank
// and its site id.
func newHostPool(tp *grid.Topology, task *hat.Task, spec *userspec.Spec, hosts []*grid.Host) *hostPool {
	n := len(hosts)
	f := make([]float64, 4*n)
	hp := &hostPool{
		hosts:    hosts,
		factor:   f[:n:n],
		capPts:   f[n : 2*n : 2*n],
		memMB:    f[2*n : 3*n : 3*n],
		rate:     f[3*n:],
		nameRank: nameRanks(tp, hosts),
		sites:    newSiteGrouper(hosts),
	}
	size := 0
	for _, h := range hosts {
		size = max(size, h.Index()+1)
	}
	hp.at = make([]int, size)
	for i, h := range hosts {
		if j := h.Index(); j >= 0 && hp.at[j] == 0 {
			hp.at[j] = i + 1
		}
		hp.factor[i] = task.SpeedFactorOn(h.Arch)
		if task.BytesPerUnit > 0 {
			hp.capPts[i] = h.MemoryMB * 1e6 / task.BytesPerUnit
		}
		hp.memMB[i] = h.MemoryMB
		if hp.rate[i] = spec.CostRate(h.Name); hp.rate[i] == 0 {
			hp.rate[i] = 1
		}
	}
	return hp
}

// indexOf returns h's pool index, -1 when h is not in the pool: by its
// dense topology index, or by a scan for a host that has none (a
// topology that was never finalized).
func (hp *hostPool) indexOf(h *grid.Host) int {
	if i := h.Index(); i >= 0 && i < len(hp.at) {
		if p := hp.at[i] - 1; p >= 0 && hp.hosts[p] == h {
			return p
		}
	}
	return slices.Index(hp.hosts, h)
}

// poolCols is one round's dynamic columns over a hostPool: availability
// as the round reads it, and the three quantities fill derives from it.
// A round owns its columns (concurrent Schedule calls never share
// them); a ReschedSession keeps one set whose availability is its
// view's column, refreshed in place.
type poolCols struct {
	pool   *hostPool
	avail  []float64
	secPP  []float64 // P_i, seconds per point; +Inf without deliverable speed
	rho    []float64 // ρ_i = 1/P_i, points per second; 0 without deliverable speed
	costPP []float64 // r_i·P_i = r_i/ρ_i, the MinCost bound term

	// route is the pair-route accessor: the latency and bottleneck
	// bandwidth between two distinct pool indices.
	route func(i, j int) (lat, bw float64)
}

// newPoolCols allocates hp's columns, routed by route.
func newPoolCols(hp *hostPool, route func(i, j int) (lat, bw float64)) *poolCols {
	n := len(hp.hosts)
	f := make([]float64, 4*n)
	return &poolCols{pool: hp, avail: f[:n:n], secPP: f[n : 2*n : 2*n], rho: f[2*n : 3*n : 3*n], costPP: f[3*n:], route: route}
}

// viewCols resolves hp's columns for one round from view, a frozen view
// over hp's hosts (position i is pool index i): it copies the view's
// availability column, routes pairs through view.routeAt, and fills.
func viewCols(hp *hostPool, view *InfoSnapshot, flopPerUnit float64) *poolCols {
	c := newPoolCols(hp, view.routeAt)
	copy(c.avail, view.avail)
	c.fill(flopPerUnit)
	return c
}

// fill derives every host's terms from its availability and static
// coefficients: P_i, flopPerUnit / 1e6 over the deliverable Mflop/s
// speed · floorAvailability(avail) · factor (+Inf when that is not
// positive); ρ_i; and r_i·P_i, which is -Inf for a rate the kernel
// would not price as positive, so no set holding that host is pruned.
func (c *poolCols) fill(flopPerUnit float64) {
	hp := c.pool
	for i, h := range hp.hosts {
		p := math.Inf(1)
		if deliverable := h.Speed * floorAvailability(c.avail[i]) * hp.factor[i]; deliverable > 0 {
			p = flopPerUnit / 1e6 / deliverable
		}
		c.secPP[i], c.rho[i], c.costPP[i] = p, 0, math.Inf(-1)
		if p > 0 && !math.IsInf(p, 1) {
			c.rho[i] = 1 / p
		}
		if r := hp.rate[i]; r > 0 {
			c.costPP[i] = r * p
		}
	}
}

// boundTerms returns the two aggregates stripModel.bound reads over
// set's hosts: the point rate Σρ_i, summed in set order, and the least
// r_i·P_i (+Inf when no host has deliverable speed).
func (c *poolCols) boundTerms(set []*grid.Host) (rate, leastCost float64) {
	leastCost = math.Inf(1)
	for _, h := range set {
		p := c.pool.indexOf(h)
		rate += c.rho[p]
		leastCost = min(leastCost, c.costPP[p])
	}
	return rate, leastCost
}

// solo is the MaxSpeedup baseline: the best predicted single-host total
// over the pool, in pool order.
func (c *poolCols) solo(m *stripModel, kn *stripKernel) float64 {
	kn.reserve(1)
	solo := math.Inf(1)
	for p := range c.avail {
		kn.chain[0] = p
		if kn.feed(m, c, 1) >= 0 {
			continue
		}
		iterT, ok := kn.solve(m, 1)
		if t := iterT * float64(m.iterations); ok && t < solo {
			solo = t
		}
	}
	return solo
}
