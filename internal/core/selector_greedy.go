package core

import (
	"iter"

	"apples/internal/grid"
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
	rs      *resourceSelector
	maxSets int
	truncation
}

// SelectSeq implements ResourceSelector. Model construction (the only
// O(pool·samples) work) runs eagerly; each yielded set is chained
// lazily.
func (g *greedySelector) SelectSeq(pool []*grid.Host) iter.Seq[[]*grid.Host] {
	g.truncation = truncation{}
	m := buildSelModel(g.rs, pool)
	return func(yield func([]*grid.Host) bool) {
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
		for len(grown.idxs) < limit {
			k := len(grown.idxs)
			sd := 0.0
			if m.cost == nil {
				// Hoisted once per step: the sampled-mode pair delta for
				// any addition is (dist[i]·k + Σ member dists) / 2.
				sd = sumDist(m, grown)
			}
			bestIdx, bestScore := -1, 0.0
			for i := 0; i < m.n; i++ {
				if grown.member[i] {
					continue
				}
				var dp float64
				if m.cost != nil {
					dp = m.addPairDelta(grown, i)
				} else {
					dp = (m.dist[i]*float64(k) + sd) / 2
				}
				sc := surrogate(grown.sumEff+m.eff[i], grown.sumPair+dp, k+1)
				if bestIdx < 0 || sc < bestScore ||
					(sc == bestScore && m.pool[i].Name < m.pool[bestIdx].Name) {
					bestIdx, bestScore = i, sc
				}
			}
			if bestIdx < 0 {
				break
			}
			m.add(grown, bestIdx)
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
