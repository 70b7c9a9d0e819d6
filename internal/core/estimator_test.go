package core

import (
	"math"

	"apples/internal/grid"
	"apples/internal/partition"
	"apples/internal/userspec"
)

// estimator is the allocating reference Performance Estimator the strip
// kernel (sessionsolver.go) is tested against: it evaluates a candidate
// schedule under the user's own performance metric.
//
// Unlike the Planner's balance equation, the estimator re-scores the
// *rounded, clamped* placement — including the spill penalty for any strip
// that exceeds real memory — so that infeasible-but-balanced plans are
// priced honestly (this is what steers the Figure 6 agent to alternative
// memory when the SP-2 fills).
//
// An estimator is immutable after newEstimator and safe for concurrent
// use by evaluation workers.
type estimator struct {
	spec *userspec.Spec

	// memMB caches each host's physical memory so the spill check does
	// not touch the topology from worker goroutines.
	memMB map[string]float64

	bytesPerPoint float64
	spillFactor   float64
	iterations    int
}

// newEstimator builds the estimator for one scheduling round, resolving
// every host's memory capacity up front.
func newEstimator(tp *grid.Topology, spec *userspec.Spec, bytesPerPoint, spillFactor float64, iterations int) *estimator {
	hosts := tp.Hosts()
	memMB := make(map[string]float64, len(hosts))
	for _, h := range hosts {
		memMB[h.Name] = h.MemoryMB
	}
	return &estimator{
		spec:          spec,
		memMB:         memMB,
		bytesPerPoint: bytesPerPoint,
		spillFactor:   spillFactor,
		iterations:    iterations,
	}
}

// iterTime predicts one iteration of the placement under the given cost
// parameters: max_i (A_i * P_i * spillMult_i + C_i). A planned placement
// lists its hosts in cost order (zero-row hosts dropped), so a forward
// cursor over costs finds each assignment in one pass; a placement in
// any other order falls back to a name scan per host.
func (es *estimator) iterTime(p *partition.Placement, costs []partition.HostCost) float64 {
	worst := 0.0
	next := 0
	for _, a := range p.Assignments {
		if a.Points == 0 {
			continue
		}
		c := matchCost(costs, a.Host, next)
		if c < 0 {
			c = matchCost(costs, a.Host, 0)
		}
		if c < 0 {
			return math.Inf(1)
		}
		next = c + 1
		mult := 1.0
		if memMB, ok := es.memMB[a.Host]; ok && es.bytesPerPoint > 0 {
			needMB := float64(a.Points) * es.bytesPerPoint / 1e6
			if needMB > memMB {
				spill := (needMB - memMB) / needMB
				mult = 1 + spill*(es.spillFactor-1)
			}
		}
		t := float64(a.Points)*costs[c].SecPerPoint*mult + costs[c].CommSec
		if t > worst {
			worst = t
		}
	}
	return worst
}

// matchCost returns the index of the first cost at or after from that
// belongs to host, or -1.
func matchCost(costs []partition.HostCost, host string, from int) int {
	for i := from; i < len(costs); i++ {
		if costs[i].Host == host {
			return i
		}
	}
	return -1
}

// score converts a candidate schedule into the user's objective value
// (lower is better for every metric; speedup is negated). iterT is the
// placement's precomputed iterTime, so callers that report it do not pay
// for the estimate twice.
func (es *estimator) score(iterT float64, p *partition.Placement, soloTime float64) float64 {
	total := iterT * float64(es.iterations)
	switch es.spec.Metric {
	case userspec.MinExecutionTime:
		return total
	case userspec.MaxSpeedup:
		if total <= 0 {
			return math.Inf(1)
		}
		return -soloTime / total
	case userspec.MinCost:
		cost := 0.0
		for _, a := range p.Assignments {
			rate := es.spec.CostRate(a.Host)
			if rate == 0 {
				rate = 1
			}
			cost += total / 3600 * rate
		}
		return cost
	default:
		return total
	}
}
