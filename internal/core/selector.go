package core

import (
	"cmp"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"apples/internal/grid"
)

// maxExhaustiveHosts bounds the all-subsets enumeration (2^12 - 1 = 4095
// candidate sets). The paper's prototype considered "all subsets" of its 8
// machines; beyond this we fall back to desirability prefixes.
const maxExhaustiveHosts = 12

// exhaustiveSelector adapts the all-subsets enumeration to the streaming
// ResourceSelector contract. The enumeration itself stays eager — it is
// the work the select stage span measures, and on exhaustive-size pools
// the whole list fits easily — but consumers still pull sets one at a
// time, and the cap that userspec.MaxResourceSets applies is reported
// through TruncationReporter instead of silently shrinking the round.
type exhaustiveSelector struct {
	rs      *resourceSelector
	maxSets int
	dropped int
	capped  bool
}

// SelectSeq implements ResourceSelector.
func (s *exhaustiveSelector) SelectSeq(pool []*grid.Host) iter.Seq[[]*grid.Host] {
	s.dropped, s.capped = 0, false
	sets := s.rs.candidates(pool, s.maxSets)
	if s.maxSets > 0 && len(pool) > 0 {
		total := len(pool)
		if len(pool) <= maxExhaustiveHosts {
			total = 1<<len(pool) - 1
		}
		if total > len(sets) {
			s.dropped, s.capped = total-len(sets), true
		}
	}
	return func(yield func([]*grid.Host) bool) {
		for _, set := range sets {
			if !yield(set) {
				return
			}
		}
	}
}

// Truncated implements TruncationReporter.
func (s *exhaustiveSelector) Truncated() (int, bool) { return s.dropped, s.capped }

// resourceSelector implements the Resource Selector subsystem: it ranks
// feasible hosts by deliverable performance, orders each candidate set so
// that logically close hosts are strip neighbors, and enumerates candidate
// sets for the Planner.
type resourceSelector struct {
	tp   *grid.Topology
	info Information
}

// orderChain arranges a resource set into a strip chain that keeps
// logically close hosts adjacent: greedy nearest-neighbor by route
// transfer cost, seeded at the fastest host. Deterministic.
func (rs *resourceSelector) orderChain(set []*grid.Host) []*grid.Host {
	eff := func(h *grid.Host) float64 { return h.Speed * rs.info.Availability(h.Name) }
	if len(set) <= 2 {
		out := append([]*grid.Host(nil), set...)
		sort.Slice(out, func(i, j int) bool {
			ei, ej := eff(out[i]), eff(out[j])
			if ei != ej {
				return ei > ej
			}
			return out[i].Name < out[j].Name
		})
		return out
	}
	remaining := append([]*grid.Host(nil), set...)
	sort.Slice(remaining, func(i, j int) bool {
		ei, ej := eff(remaining[i]), eff(remaining[j])
		if ei != ej {
			return ei > ej
		}
		return remaining[i].Name < remaining[j].Name
	})
	chain := []*grid.Host{remaining[0]}
	remaining = remaining[1:]
	for len(remaining) > 0 {
		cur := chain[len(chain)-1]
		bestIdx, bestCost := 0, math.Inf(1)
		for i, h := range remaining {
			bw := rs.info.RouteBandwidth(cur.Name, h.Name)
			if bw <= 0 {
				bw = 1e-6
			}
			cost := rs.info.RouteLatency(cur.Name, h.Name) + 1.0/bw
			if cost < bestCost || (cost == bestCost && h.Name < remaining[bestIdx].Name) {
				bestIdx, bestCost = i, cost
			}
		}
		chain = append(chain, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chain
}

// candidates enumerates resource sets for the Planner, each already
// ordered as a strip chain. With a small pool every non-empty subset is
// considered (as the paper's prototype did); larger pools use prefixes of
// the desirability ranking. maxSets caps the result when positive.
//
// A host's desirability is its forecast deliverable speed discounted by
// its mean network distance to the rest of the pool — the
// application-specific "closeness" of Section 3.3: a fast machine behind
// a slow shared WAN is less desirable to a border-exchanging stencil code
// than a modest one on the local segment.
//
// The exhaustive path is the hot loop of a scheduling round (2^pool - 1
// sets), so every information value it needs — per-host effective speed
// and the pairwise transfer cost — is resolved once up front; subsets are
// then enumerated as bitmasks and chained by index arithmetic. The
// resulting sets are identical, element for element, to the naive
// per-set construction the package tests keep as an oracle.
func (rs *resourceSelector) candidates(pool []*grid.Host, maxSets int) [][]*grid.Host {
	n := len(pool)
	if n == 0 {
		return nil
	}
	// eff[i] is host i's deliverable speed; cost[i][j] the seconds to move
	// a nominal 1 MB border from i to j — the same quantities orderChain
	// computes, resolved once for the whole enumeration.
	eff := make([]float64, n)
	for i, h := range pool {
		eff[i] = h.Speed * rs.info.Availability(h.Name)
	}
	idx := make([]int, n)
	ri := indexHosts(rs.info, pool, idx)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				continue
			}
			lat, bw := routePair(rs.info, ri, pool[i], pool[j], idx[i], idx[j])
			if bw <= 0 {
				bw = 1e-6
			}
			cost[i][j] = lat + 1.0/bw
		}
	}
	des := make([]float64, n)
	for i := range pool {
		des[i] = eff[i]
		if n > 1 {
			dist := 0.0
			for j := range pool {
				if j == i {
					continue
				}
				dist += cost[i][j]
			}
			dist /= float64(n - 1)
			des[i] = eff[i] / (1 + dist)
		}
	}
	// Rank by desirability (the enumeration and prefix order), then
	// re-index eff and cost to ranked positions.
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		if des[ord[a]] != des[ord[b]] {
			return des[ord[a]] > des[ord[b]]
		}
		return pool[ord[a]].Name < pool[ord[b]].Name
	})
	ranked := make([]*grid.Host, n)
	rDes := make([]float64, n)
	rEff := make([]float64, n)
	rCost := make([][]float64, n)
	for a, idx := range ord {
		ranked[a] = pool[idx]
		rDes[a] = des[idx]
		rEff[a] = eff[idx]
		rCost[a] = make([]float64, n)
		for b, jdx := range ord {
			rCost[a][b] = cost[idx][jdx]
		}
	}

	if n > maxExhaustiveHosts {
		sets := make([][]*grid.Host, 0, n)
		for k := 1; k <= n; k++ {
			sets = append(sets, append([]*grid.Host(nil), ranked[:k]...))
		}
		if maxSets > 0 && len(sets) > maxSets {
			sets = sets[:maxSets]
		}
		for i, set := range sets {
			sets[i] = rs.orderChain(set)
		}
		return sets
	}

	// effOrder is orderChain's seed ordering (eff desc, name asc) over
	// ranked indices; filtering it by a mask yields each subset already
	// eff-sorted.
	effOrder := make([]int, n)
	for i := range effOrder {
		effOrder[i] = i
	}
	sort.Slice(effOrder, func(a, b int) bool {
		if rEff[effOrder[a]] != rEff[effOrder[b]] {
			return rEff[effOrder[a]] > rEff[effOrder[b]]
		}
		return ranked[effOrder[a]].Name < ranked[effOrder[b]].Name
	})

	// Prefer larger aggregate desirability first so a cap keeps the most
	// promising sets; ties keep mask-enumeration order, and cmp.Compare
	// puts a NaN aggregate (from a NaN route forecast) last. agg[mask]
	// adds the highest member to the sum of the others, which were
	// themselves summed lowest bit first, so every sum takes its terms in
	// ascending bit order.
	total := 1<<n - 1
	agg := make([]float64, total+1)
	for mask := 1; mask <= total; mask++ {
		hb := bits.Len(uint(mask)) - 1
		agg[mask] = agg[mask&^(1<<hb)] + rDes[hb]
	}
	order := make([]int, total)
	for i := range order {
		order[i] = i + 1
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(agg[b], agg[a]); c != 0 {
			return c
		}
		return a - b
	})
	if maxSets > 0 && len(order) > maxSets {
		order = order[:maxSets]
	}
	members := 0
	for _, mask := range order {
		members += bits.OnesCount(uint(mask))
	}

	// Chain each mask: greedy nearest neighbor by transfer cost, seeded at
	// the highest-eff member, ties broken by name — orderChain's algorithm
	// on the precomputed matrices. Every chain is a capped window of one
	// backing array.
	sets := make([][]*grid.Host, len(order))
	backing := make([]*grid.Host, 0, members)
	scratch := make([]int, 0, n)
	for si, mask := range order {
		scratch = scratch[:0]
		for _, idx := range effOrder {
			if mask&(1<<idx) != 0 {
				scratch = append(scratch, idx)
			}
		}
		start := len(backing)
		cur := scratch[0]
		backing = append(backing, ranked[cur])
		rem := scratch[1:]
		for len(rem) > 0 {
			bestI, bestCost := 0, math.Inf(1)
			for i, idx := range rem {
				if c := rCost[cur][idx]; c < bestCost || (c == bestCost && ranked[idx].Name < ranked[rem[bestI]].Name) {
					bestI, bestCost = i, c
				}
			}
			cur = rem[bestI]
			backing = append(backing, ranked[cur])
			rem = append(rem[:bestI], rem[bestI+1:]...)
		}
		sets[si] = backing[start:len(backing):len(backing)]
	}
	return sets
}
