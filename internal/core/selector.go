package core

import (
	"cmp"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
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
	cols    *poolCols
	maxSets int
	truncation
}

// SelectSeq streams the subsets of the columns' pool.
func (s *exhaustiveSelector) SelectSeq() iter.Seq[[]int] {
	s.truncation = truncation{}
	sets := candidates(s.cols, s.maxSets)
	if np := len(s.cols.pool.hosts); s.maxSets > 0 && np > 0 {
		total := np
		if np <= maxExhaustiveHosts {
			total = 1<<np - 1
		}
		if total > len(sets) {
			s.dropped, s.capped = total-len(sets), true
		}
	}
	return slices.Values(sets)
}

// candidates is the Resource Selector of the exhaustive kind over one
// round's pool columns c: it ranks feasible hosts by deliverable
// performance, orders each candidate set so that logically close hosts
// are strip neighbors, and enumerates candidate sets for the Planner,
// each a strip chain of pool indices. With a small pool every non-empty
// subset is considered (as the paper's prototype did); larger pools use
// prefixes of the desirability ranking. maxSets caps the result when
// positive.
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
func candidates(c *poolCols, maxSets int) [][]int {
	n := len(c.pool.hosts)
	if n == 0 {
		return nil
	}
	m := buildSelModel(c, true)
	if n > maxExhaustiveHosts {
		k := n
		if maxSets > 0 {
			k = min(k, maxSets)
		}
		sets := make([][]int, k)
		for i := range sets {
			sets[i] = m.chain(m.rank[:i+1])
		}
		return sets
	}

	order := enumOrder(m.desSums())
	if maxSets > 0 && len(order) > maxSets {
		order = order[:maxSets]
	}
	return m.chainMasks(order)
}

// desSums returns the aggregate desirability of every ranking-bit mask
// over the model's hosts (at most maxExhaustiveHosts): bit b of a mask
// is ranking position b. agg[mask] adds the highest member to the sum
// of the others, which were themselves summed lowest bit first, so
// every sum takes its terms in ascending bit order.
func (m *selModel) desSums() []float64 {
	agg := make([]float64, 1<<m.n)
	for mask := 1; mask < len(agg); mask++ {
		hb := bits.Len(uint(mask)) - 1
		agg[mask] = agg[mask&^(1<<hb)] + m.des[m.rank[hb]]
	}
	return agg
}

// enumCmp orders ranking-bit masks as the exhaustive enumeration does:
// larger aggregate desirability first, so a cap keeps the most
// promising sets, ties in mask order. cmp.Compare puts a NaN aggregate
// (from a NaN route forecast) last.
func enumCmp(agg []float64, a, b int) int {
	if c := cmp.Compare(agg[b], agg[a]); c != 0 {
		return c
	}
	return a - b
}

// sortMasks sorts ranking-bit masks into enumeration order.
func sortMasks(masks []int, agg []float64) {
	slices.SortFunc(masks, func(a, b int) int { return enumCmp(agg, a, b) })
}

// sortEnum sorts ranking-bit masks (below 1<<maxExhaustiveHosts) into
// enumeration order, exactly as sortMasks does, by sorting integers.
// Each mask is packed below its aggregate's enumKey, whose lowest
// maxExhaustiveHosts bits it replaces, and the packed keys are sorted
// as plain ints. Masks whose keys agree above those bits land in one
// run, ordered by mask: right when their aggregates tie, so a run is
// re-sorted by enumCmp only when it is out of that order.
func sortEnum(masks []int, agg []float64) {
	const low = 1<<maxExhaustiveHosts - 1
	for i, mask := range masks {
		// Flipping the sign bit makes int order the keys' unsigned order.
		masks[i] = int((enumKey(agg[mask])&^low | uint64(mask)) ^ 1<<63)
	}
	slices.Sort(masks)
	for i := 0; i < len(masks); {
		j := i + 1
		for j < len(masks) && masks[j]>>maxExhaustiveHosts == masks[i]>>maxExhaustiveHosts {
			j++
		}
		run := masks[i:j]
		for r := range run {
			run[r] &= low
		}
		if len(run) > 1 && !slices.IsSortedFunc(run, func(a, b int) int { return enumCmp(agg, a, b) }) {
			sortMasks(run, agg)
		}
		i = j
	}
}

// enumKey maps an aggregate to an unsigned key that ascends in
// enumCmp's order: larger aggregates first, -0 level with +0, every NaN
// last. A non-negative float's bits ascend with its value, so their
// complement (sign bit cleared) descends; a negative float's bits
// ascend with its magnitude and sit above every non-negative key.
func enumKey(x float64) uint64 {
	if x != x {
		return math.MaxUint64
	}
	if x == 0 {
		return 1<<63 - 1
	}
	b := math.Float64bits(x)
	if b>>63 == 0 {
		return ^b &^ (1 << 63)
	}
	return b
}

// enumOrder returns every non-empty ranking-bit mask of agg in
// enumeration order.
func enumOrder(agg []float64) []int {
	order := make([]int, len(agg)-1)
	for i := range order {
		order[i] = i + 1
	}
	sortEnum(order, agg)
	return order
}

// chainMasks lays every ranking-bit mask out as a strip chain of pool
// indices, in order; every chain is a capped window of one backing
// array.
func (m *selModel) chainMasks(masks []int) [][]int {
	members := 0
	for _, mask := range masks {
		members += bits.OnesCount(uint(mask))
	}
	sets := make([][]int, len(masks))
	backing := make([]int, 0, members)
	for si, mask := range masks {
		start := len(backing)
		backing = append(backing, m.orderMask(mask)...)
		sets[si] = backing[start:len(backing):len(backing)]
	}
	return sets
}

// orderMask lays ranking-bit mask out as a strip chain of pool indices
// in the model's scratch, valid until the next chain: filtering the eff
// order by the mask yields its members in eff-seed order, and layout
// lays them out.
func (m *selModel) orderMask(mask int) []int {
	ordered := m.ordered[:0]
	for _, idx := range m.effOrder {
		if mask&(1<<m.rankPos[idx]) != 0 {
			ordered = append(ordered, idx)
		}
	}
	m.layout(ordered)
	return ordered
}

// SkippedSets is a round plan's report of the sets it skipped before
// chaining. Every one of them has a bound strictly above Seed, the
// exact score of a set the plan yields, so none could have won or tied
// the winner.
type SkippedSets struct {
	// Count is how many sets were skipped, LeastBound the least of
	// their bounds.
	Count      int
	LeastBound float64
	Seed       float64

	// kept holds the yielded sets' ranking-bit masks and agg every
	// mask's enumeration key, to place the kept sets in the unskipped
	// enumeration.
	kept []int
	agg  []float64
}

// positions returns each yielded set's 0-based position in the
// unskipped enumeration, so trace events keep the indices an unskipped
// round gives them. Every skipped mask falls before the first kept
// mask it does not follow, found by binary search, and so before every
// later kept mask.
func (s *SkippedSets) positions() []int {
	pos := make([]int, len(s.kept))
	for mask := 1; mask < len(s.agg); mask++ {
		j := sort.Search(len(s.kept), func(j int) bool { return enumCmp(s.agg, s.kept[j], mask) >= 0 })
		if j < len(s.kept) && s.kept[j] != mask {
			pos[j]++
		}
	}
	run := 0
	for j := range pos {
		run += pos[j]
		pos[j] = j + run
	}
	return pos
}

// boundedSubsets is the exhaustive enumeration of a winner-only round
// over a pool of at most maxExhaustiveHosts hosts, bounded before it is
// chained: the one mask walk (selModel.walk), seeded with the best
// desirability prefix (selModel.prefixSeed). Only the kept sets are
// chained. bound is the round plan's per-set Bound: the walk's bound of
// the set's mask, so the walk's seed filter and the Coordinator's
// per-set prune read one bound per set, as a ReschedSession's do.
func boundedSubsets(rp *roundPricer) (sets [][]int, bound func([]int) float64, skip SkippedSets) {
	m := buildSelModel(rp.cols, true)
	kn := kernelPool.Get().(*stripKernel)
	seed := m.prefixSeed(rp, kn)
	kernelPool.Put(kn)
	w := newMaskWalk(m.n)
	skip = m.walk(&w, rp, seed, m.desSums())
	rate, least := w.rate, w.least
	bound = func(set []int) float64 {
		mask := 0
		for _, i := range set {
			mask |= 1 << m.rankPos[i]
		}
		return rp.bound(rate[mask], least[mask])
	}
	return m.chainMasks(skip.kept), bound, skip
}

// prefixSeed is the least exact score (+Inf when infeasible) among the
// model's desirability prefixes, each a member of the universe chained
// as the enumeration chains it and priced by rp into kn: the seed of a
// bounded walk with no better one.
func (m *selModel) prefixSeed(rp *roundPricer, kn *stripKernel) float64 {
	seed := math.Inf(1)
	for k := 1; k <= m.n; k++ {
		if _, sc, ok := rp.priceChain(kn, m.orderMask(1<<k-1)); ok && sc < seed {
			seed = sc
		}
	}
	return seed
}

// maskWalk is the scratch of the bounded mask walk over a pool of p
// hosts: each ranking-bit mask's point rate Σρ_i and least r_i·P_i, and
// the masks the walk kept. A ReschedSession keeps one across rounds;
// an Agent round makes its own, because its SkippedSets outlives the
// walk.
type maskWalk struct {
	rate, least []float64
	kept        []int
}

// bound is mask's bound under rp's metric over the terms the last walk
// filled.
func (w *maskWalk) bound(rp *roundPricer, mask int) float64 {
	return rp.bound(w.rate[mask], w.least[mask])
}

func newMaskWalk(p int) maskWalk {
	total := 1 << p
	terms := make([]float64, 2*total)
	w := maskWalk{rate: terms[:total:total], least: terms[total:], kept: make([]int, 0, total-1)}
	w.least[0] = math.Inf(1)
	return w
}

// walk is the one bounded walk over the model's ranking-bit masks (at
// most maxExhaustiveHosts hosts), shared by winner-only Agent rounds and
// ReschedSession rounds. It fills, by the recurrence desSums uses, each
// mask's Σρ_i and least r_i·P_i from rp's pool columns into w, keeps
// every mask whose bound under rp's metric (stripModel.bound) is not
// strictly above seed, and sorts the kept masks into enumeration order
// by agg, the enumeration key. The kept masks live in w's scratch.
//
// With seed the exact score of a set in the universe (+Inf prunes
// nothing), the decision cannot move. The winner W scores at most the
// seed, and its bound never exceeds its score, so W is kept, and so is
// every set tied with it; the kept sets keep their enumeration order,
// so the (score, index) tie-break among them is unchanged.
func (m *selModel) walk(w *maskWalk, rp *roundPricer, seed float64, agg []float64) SkippedSets {
	skip := SkippedSets{LeastBound: math.Inf(1), Seed: seed, kept: w.kept[:0], agg: agg}
	c := rp.cols
	for mask := 1; mask < len(w.rate); mask++ {
		hb := bits.Len(uint(mask)) - 1
		rest, i := mask&^(1<<hb), m.rank[hb]
		w.rate[mask] = w.rate[rest] + c.rho[i]
		w.least[mask] = min(w.least[rest], c.costPP[i])
		if b := w.bound(rp, mask); b > seed {
			skip.Count++
			skip.LeastBound = min(skip.LeastBound, b)
			continue
		}
		skip.kept = append(skip.kept, mask)
	}
	sortEnum(skip.kept, agg)
	w.kept = skip.kept
	return skip
}
