package core

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"

	"apples/internal/grid"
)

// maxExhaustiveHosts bounds the all-subsets enumeration (2^12 - 1 = 4095
// candidate sets). The paper's prototype considered "all subsets" of its 8
// machines; beyond this we fall back to desirability prefixes.
const maxExhaustiveHosts = 12

// exhaustiveSelector streams the all-subsets enumeration. The
// enumeration itself stays eager — it is the work the select stage span
// measures, and on exhaustive-size pools the whole list fits easily —
// but consumers still pull sets one at a time, and the cap that
// userspec.MaxResourceSets applies is reported through Truncated instead
// of silently shrinking the round.
type exhaustiveSelector struct {
	rs      *resourceSelector
	maxSets int
	truncation
}

// SelectSeq streams the subsets of pool.
func (s *exhaustiveSelector) SelectSeq(pool []*grid.Host) iter.Seq[[]*grid.Host] {
	s.truncation = truncation{}
	sets := s.rs.candidates(s.maxSets)
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

// resourceSelector implements the Resource Selector subsystem: it ranks
// feasible hosts by deliverable performance, orders each candidate set so
// that logically close hosts are strip neighbors, and enumerates candidate
// sets for the Planner. It is bound to one round's pool columns, and
// every selector over it enumerates the pool they cover: the round's.
type resourceSelector struct {
	cols *poolCols
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
// Every information value comes from the pool model (buildSelModel),
// with exact pair costs at every pool size: its desirability ranking,
// eff-seed order and pair-cost matrix. Subsets are enumerated as
// bitmasks over ranking positions and laid out by the model's one chain
// layout. The resulting sets are identical, element for element, to the
// naive per-set construction the package tests keep as an oracle.
func (rs *resourceSelector) candidates(maxSets int) [][]*grid.Host {
	n := len(rs.cols.pool.hosts)
	if n == 0 {
		return nil
	}
	m := buildSelModel(rs, true)
	if n > maxExhaustiveHosts {
		k := n
		if maxSets > 0 {
			k = min(k, maxSets)
		}
		sets := make([][]*grid.Host, k)
		for i := range sets {
			sets[i] = m.chain(m.rank[:i+1])
		}
		return sets
	}

	// Prefer larger aggregate desirability first so a cap keeps the most
	// promising sets; ties keep mask-enumeration order, and cmp.Compare
	// puts a NaN aggregate (from a NaN route forecast) last. Bit b of a
	// mask is ranking position b. agg[mask] adds the highest member to
	// the sum of the others, which were themselves summed lowest bit
	// first, so every sum takes its terms in ascending bit order.
	total := 1<<n - 1
	agg := make([]float64, total+1)
	for mask := 1; mask <= total; mask++ {
		hb := bits.Len(uint(mask)) - 1
		agg[mask] = agg[mask&^(1<<hb)] + m.des[m.rank[hb]]
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

	// Filtering the eff order by a mask yields each subset in eff-seed
	// order; every chain is a capped window of one backing array.
	sets := make([][]*grid.Host, len(order))
	backing := make([]*grid.Host, 0, members)
	for si, mask := range order {
		ordered := m.ordered[:0]
		for _, idx := range m.effOrder {
			if mask&(1<<m.rankPos[idx]) != 0 {
				ordered = append(ordered, idx)
			}
		}
		m.layout(ordered)
		start := len(backing)
		for _, idx := range ordered {
			backing = append(backing, m.pool[idx])
		}
		sets[si] = backing[start:len(backing):len(backing)]
	}
	return sets
}
