package core

import (
	"iter"
	"math"
	"slices"
)

// maxGreedyGrowth caps how far the marginal-gain chain grows on very
// large pools; the surrogate objective has always turned over well
// before this on cluster topologies, and the prefix ladder still covers
// every larger size.
const maxGreedyGrowth = 256

// greedyPatience stops the growth after this many consecutive additions
// that fail to improve the best surrogate score seen: once the marginal
// host only hurts, every later one does too (it was a worse candidate at
// every earlier step), so further growth just burns evaluation budget
// the prefix ladder already covers.
const greedyPatience = 8

// greedyEmitDense is the growth size below which every membership is
// yielded; above it only every greedyEmitStride-th is, keeping the
// evaluation cost of the growth family linear in the pool instead of
// quadratic in the growth cap.
const (
	greedyEmitDense  = 32
	greedyEmitStride = 4
)

// greedySelector is the interactive-latency heuristic: it yields the
// desirability-ranking prefixes (the legacy >12-host fallback family)
// plus a marginal-gain grown set — starting from the most desirable
// host and repeatedly adding whichever host most improves the surrogate
// objective, yielding every grown membership that differs from the
// same-size prefix. O(pool) candidate sets, no randomness, fully
// deterministic: ties break by host name through the model's orderings.
type greedySelector struct {
	cols    *poolCols
	maxSets int
	truncation
}

// SelectSeq streams the greedy family over the columns' pool. Model
// construction (the only O(pool·samples) work) runs eagerly; each
// yielded set is chained lazily.
func (g *greedySelector) SelectSeq() iter.Seq[[]int] {
	g.truncation = truncation{}
	m := buildSelModel(g.cols, len(g.cols.pool.hosts) <= selExactPairHosts)
	return func(yield func([]int) bool) {
		if m.n == 0 {
			return
		}
		// emit chains and yields one membership unless the cap hit (the
		// remainder is counted as dropped); it reports false once the
		// consumer stopped.
		emitted := 0
		emit := func(idxs []int) bool {
			if g.maxSets > 0 && emitted >= g.maxSets {
				g.dropped++
				g.capped = true
				return true
			}
			emitted++
			return yield(m.chain(idxs))
		}

		// Desirability prefixes, smallest first.
		sizes := prefixSizes(m.n)
		isPrefix := make([]bool, m.n+1)
		for _, size := range sizes {
			isPrefix[size] = true
			if !emit(m.rank[:size]) {
				return
			}
		}

		// Marginal-gain growth: add the host that best improves the
		// surrogate at each step. Unlike the prefix family this accounts
		// for pair costs against the current members, so it can step off
		// the ranking (e.g. keep a set single-site while the ranking
		// interleaves sites).
		grown := newSelState(m.n)
		m.add(grown, m.rank[0])
		maxPos := 0 // largest ranking position among the grown members
		limit := min(m.n, maxGreedyGrowth)
		bestSeen := m.score(grown)
		worse := 0
		var scan *growthScan
		if m.cost == nil {
			scan = newGrowthScan(m, grown)
		}
		for len(grown.idxs) < limit {
			k := len(grown.idxs)
			var bestIdx int
			var bestScore float64
			if scan != nil {
				bestIdx, bestScore = scan.next(m, grown, k, sumDist(m, grown))
			} else {
				bestIdx, bestScore = m.growStep(grown, k)
			}
			if bestIdx < 0 {
				break
			}
			m.add(grown, bestIdx)
			if scan != nil {
				scan.took(m, grown, bestIdx)
			}
			maxPos = max(maxPos, m.rankPos[bestIdx])
			stop := false
			if bestScore < bestSeen {
				bestSeen, worse = bestScore, 0
			} else if worse++; worse >= greedyPatience {
				stop = true
			}
			size := len(grown.idxs)
			// A grown set of a prefix size whose members all rank within
			// that size is the prefix itself: it was already yielded (or
			// dropped by the cap), so it is skipped uncounted.
			dup := isPrefix[size] && maxPos == size-1
			if !dup && (size <= greedyEmitDense || size%greedyEmitStride == 0 || size == limit || stop) {
				if !emit(grown.idxs) {
					return
				}
			}
			if stop {
				break
			}
		}
	}
}

// growStep is one marginal-gain step by full scan: the non-member of s
// (k members) minimizing (surrogate after adding it, name, pool index),
// and that surrogate; -1 when every host is a member. It prices exact
// pair costs on small pools, and serves sampled pools whose model
// growthScan cannot bound.
func (m *selModel) growStep(s *selState, k int) (int, float64) {
	sd := 0.0
	if m.cost == nil {
		// Hoisted once per step: the sampled-mode pair delta for any
		// addition is (dist[i]·k + Σ member dists) / 2.
		sd = sumDist(m, s)
	}
	bestIdx, bestScore := -1, 0.0
	for i := 0; i < m.n; i++ {
		if s.member[i] {
			continue
		}
		var dp float64
		if m.cost != nil {
			dp = m.addPairDelta(s, i)
		} else {
			dp = (m.dist[i]*float64(k) + sd) / 2
		}
		sc := surrogate(s.sumEff+m.eff[i], s.sumPair+dp, k+1)
		if bestIdx < 0 || sc < bestScore || (sc == bestScore && m.nameRank[i] < m.nameRank[bestIdx]) {
			bestIdx, bestScore = i, sc
		}
	}
	return bestIdx, bestScore
}

// growthBlockSize is how many hosts share one bound in growthScan.
const growthBlockSize = 32

// growthScan finds each sampled-mode growth step's winner without
// pricing every non-member, and finds the same winner as growStep.
//
// A step adds the non-member i minimizing (score_i, name), where
// score_i = surrogate(sumEff+eff[i], sumPair+(dist[i]·k+sd)/2, k+1).
// With finite, non-negative eff and dist that expression does not
// decrease in dist and does not increase in eff, and IEEE rounding is
// monotone; so the same expression at a group's least dist and largest
// non-member eff is a float lower bound on every member's score. Hosts
// are ordered once by (dist asc, eff desc, name asc) and cut into
// blocks of growthBlockSize. A step bounds every block, scans the block
// with the least bound, then scans only the blocks whose bound is not
// strictly above the incumbent: a block bounded exactly at it may hold
// an equal score with a smaller name. Within a block a non-member whose
// (dist, eff) bits equal the last one priced is skipped, since it
// scores the same and its name is larger.
type growthScan struct {
	order  []int // pool indices by dist asc, eff desc, name asc
	pos    []int // pool index -> position in order
	blocks []growthBlock
}

type growthBlock struct {
	minDist float64 // the block's first, least dist
	maxEff  float64 // largest non-member eff; -1 once every host is a member
	bound   float64 // this step's bound
}

// newGrowthScan indexes m for growth from s, or returns nil when the
// monotonicity argument does not hold: some eff or dist is negative,
// NaN or ±Inf, or Σeff is so large that sums could overflow into an
// Inf/Inf score.
func newGrowthScan(m *selModel, s *selState) *growthScan {
	sumEff := 0.0
	for i := range m.n {
		e, d := m.eff[i], m.dist[i]
		if !(e >= 0 && d >= 0) || math.IsInf(e, 1) || math.IsInf(d, 1) {
			return nil
		}
		sumEff += e
	}
	if !(sumEff <= math.MaxFloat64/4) {
		return nil
	}
	g := &growthScan{order: make([]int, m.n), pos: make([]int, m.n),
		blocks: make([]growthBlock, (m.n+growthBlockSize-1)/growthBlockSize)}
	for i := range g.order {
		g.order[i] = i
	}
	// Every eff and dist is finite and non-negative here, so plain float
	// compares order them as cmp.Compare would, without its NaN checks.
	slices.SortFunc(g.order, func(a, b int) int {
		switch {
		case m.dist[a] < m.dist[b]:
			return -1
		case m.dist[a] > m.dist[b]:
			return 1
		case m.eff[a] > m.eff[b]:
			return -1
		case m.eff[a] < m.eff[b]:
			return 1
		case m.nameRank[a] != m.nameRank[b]:
			return m.nameRank[a] - m.nameRank[b]
		}
		return a - b
	})
	for p, i := range g.order {
		g.pos[i] = p
	}
	for b := range g.blocks {
		g.blocks[b].minDist = m.dist[g.order[b*growthBlockSize]]
		g.refresh(m, s, b)
	}
	return g
}

// block is block b's pool indices.
func (g *growthScan) block(b int) []int {
	return g.order[b*growthBlockSize : min((b+1)*growthBlockSize, len(g.order))]
}

// refresh recomputes block b's largest non-member eff.
func (g *growthScan) refresh(m *selModel, s *selState, b int) {
	g.blocks[b].maxEff = -1
	for _, i := range g.block(b) {
		if !s.member[i] {
			g.blocks[b].maxEff = max(g.blocks[b].maxEff, m.eff[i])
		}
	}
}

// took updates the index after pool index i joined s.
func (g *growthScan) took(m *selModel, s *selState, i int) {
	g.refresh(m, s, g.pos[i]/growthBlockSize)
}

// bound is block b's lower bound on the score of adding any of its
// non-members to s (k members whose dists sum to sd).
func (g *growthScan) bound(s *selState, b, k int, sd float64) float64 {
	blk := &g.blocks[b]
	return surrogate(s.sumEff+blk.maxEff, s.sumPair+(blk.minDist*float64(k)+sd)/2, k+1)
}

// next is growStep's winner and score for s (k members whose dists sum
// to sd), found by scanning only the blocks that can hold it.
func (g *growthScan) next(m *selModel, s *selState, k int, sd float64) (int, float64) {
	first := -1
	for b := range g.blocks {
		blk := &g.blocks[b]
		if blk.maxEff < 0 {
			continue
		}
		blk.bound = g.bound(s, b, k, sd)
		if first < 0 || blk.bound < g.blocks[first].bound {
			first = b
		}
	}
	if first < 0 {
		return -1, 0
	}
	best, bestScore := g.scanBlock(m, s, first, k, sd, -1, 0)
	for b := range g.blocks {
		if blk := &g.blocks[b]; b != first && blk.maxEff >= 0 && blk.bound <= bestScore {
			best, bestScore = g.scanBlock(m, s, b, k, sd, best, bestScore)
		}
	}
	return best, bestScore
}

// scanBlock prices block b's non-members against the incumbent (best,
// bestScore; best -1 for none) and returns the new incumbent.
func (g *growthScan) scanBlock(m *selModel, s *selState, b, k int, sd float64, best int, bestScore float64) (int, float64) {
	lastD, lastE := uint64(math.MaxUint64), uint64(math.MaxUint64) // no finite float's bits
	for _, i := range g.block(b) {
		if s.member[i] {
			continue
		}
		d, e := math.Float64bits(m.dist[i]), math.Float64bits(m.eff[i])
		if d == lastD && e == lastE {
			continue
		}
		lastD, lastE = d, e
		sc := surrogate(s.sumEff+m.eff[i], s.sumPair+(m.dist[i]*float64(k)+sd)/2, k+1)
		if best < 0 || sc < bestScore ||
			(sc == bestScore && (m.nameRank[i] < m.nameRank[best] || m.nameRank[i] == m.nameRank[best] && i < best)) {
			best, bestScore = i, sc
		}
	}
	return best, bestScore
}
