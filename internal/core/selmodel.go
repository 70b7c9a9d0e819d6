package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"apples/internal/grid"
)

// selExactPairHosts bounds the exact pairwise transfer-cost matrix the
// heuristic selectors precompute. Up to this pool size (which covers
// every pool the exhaustive selector can also handle, so the
// optimality-gap tests compare like for like) chains and surrogate
// scores use exact pair costs; larger pools estimate each host's
// network distance against a fixed sample of the pool instead, keeping
// model construction O(pool · samples) rather than O(pool²). The
// exhaustive selector prices every pool exactly: its large-pool prefix
// family ranks by exact mean distance.
const selExactPairHosts = 64

// selDistSamples is how many sample hosts a large pool's distance
// estimate averages over. Eight evenly spaced hosts straddle every site
// of the cluster topologies the sampled mode exists for; doubling it
// measurably slows 2048-host rounds without moving the ranking.
const selDistSamples = 8

// selModel is the one pool model behind every Resource Selector and the
// ReschedSession's chains: per-host deliverable speed, network
// distance, desirability, and (when exact) the pairwise transfer costs
// — resolved once per round from the round's pool columns, so the
// per-candidate work is arithmetic only. It also owns
// the one chain layout (layout): greedy nearest neighbor over the exact
// costs, and a site-aware O(pool + k) approximation when distances are
// sampled.
type selModel struct {
	n int

	eff  []float64   // deliverable speed per pool index
	dist []float64   // mean network distance per pool index
	des  []float64   // desirability: eff / (1 + dist)
	cost [][]float64 // exact pair costs; nil when distances are sampled

	rank     []int // pool indices by desirability desc, name asc
	effOrder []int // pool indices by eff desc, name asc (chain seed order)
	rankPos  []int // inverse of rank: pool index -> ranking position
	nameRank []int // per pool index, an int that orders like the host name

	// Chain scratch, reused by every chain call: a membership mark per
	// pool index, the members in eff order, and layout's copy of them
	// (the nearest-neighbor worklist, or the site grouping's input).
	// sites is the site layout of sampled pools.
	mark    []bool
	ordered []int
	rem     []int
	sites   siteGrouper
}

// setEff writes every host's deliverable speed, speed · availability
// as c reads it, and the eff-seed order it gives.
func (m *selModel) setEff(c *poolCols) {
	for i, h := range c.pool.hosts {
		m.eff[i] = h.Speed * c.avail[i]
	}
	rankDesc(m.effOrder, m.eff, m.nameRank)
}

// buildSelModel resolves the model for one round from its pool columns
// c. exact asks for the pair-cost matrix and exact mean distances;
// otherwise each host's distance averages a fixed sample of the pool,
// and the chain layout groups sites on a clone of the pool's site
// layout. Name ranks and site ids come from the columns' pool.
func buildSelModel(c *poolCols, exact bool) *selModel {
	n := len(c.pool.hosts)
	m := &selModel{n: n, eff: make([]float64, n), effOrder: make([]int, n),
		dist: make([]float64, n), des: make([]float64, n), nameRank: c.pool.nameRank,
		mark: make([]bool, n), ordered: make([]int, 0, n), rem: make([]int, n)}
	if exact {
		m.cost = make([][]float64, n)
		flat := make([]float64, n*n)
		for i := range m.cost {
			m.cost[i] = flat[i*n : (i+1)*n : (i+1)*n]
		}
	} else {
		m.sites = c.pool.sites.clone()
	}
	m.setEff(c)
	pairCost := func(i, j int) float64 {
		return transferCost(c.route(i, j))
	}
	if exact {
		for i, row := range m.cost {
			d := 0.0
			for j := range row {
				if i != j {
					row[j] = pairCost(i, j)
				}
				d += row[j]
			}
			if n > 1 {
				m.dist[i] = d / float64(n-1)
			}
		}
	} else {
		// Sampled distances: average transfer cost to a deterministic,
		// evenly spaced subset of the pool.
		stride := (n + selDistSamples - 1) / selDistSamples
		var samples []int
		for s := 0; s < n; s += stride {
			samples = append(samples, s)
		}
		for i := range n {
			d, k := 0.0, 0
			for _, s := range samples {
				if s == i {
					continue
				}
				d += pairCost(i, s)
				k++
			}
			if k > 0 {
				m.dist[i] = d / float64(k)
			}
		}
	}
	for i := range n {
		m.des[i] = m.eff[i] / (1 + m.dist[i])
	}
	m.rank = make([]int, n)
	rankDesc(m.rank, m.des, m.nameRank)
	m.rankPos = make([]int, n)
	for pos, idx := range m.rank {
		m.rankPos[idx] = pos
	}
	return m
}

// transferCost is the chain transfer cost of a route: its latency plus
// the seconds a nominal 1 MB border takes at its bandwidth, floored at
// 1e-6 MB/s so a dead route prices as very slow.
func transferCost(lat, bw float64) float64 {
	if bw <= 0 {
		bw = deadRouteBandwidth
	}
	return lat + 1.0/bw
}

// rankDesc fills idx with the indices of key, largest key first, ties
// by ascending tie (a name rank). With a total order, as finite keys and
// distinct names give, the permutation does not depend on the sort.
func rankDesc(idx []int, key []float64, tie []int) {
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if key[a] != key[b] {
			if key[a] > key[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(tie[a], tie[b])
	})
}

// nameRanks returns, per pool index, an int that compares like the
// host's name, so tie-breaks by name compare ints. Finalize numbers a
// topology's hosts in name order, so the rank is the host's dense index
// in tp whenever tp has one for every pool host; otherwise it is the
// host's position in a name sort, equal names sharing a rank.
func nameRanks(tp *grid.Topology, pool []*grid.Host) []int {
	r := make([]int, len(pool))
	if tp != nil {
		indexed := true
		for i, h := range pool {
			if r[i] = tp.IndexOf(h); r[i] < 0 {
				indexed = false
				break
			}
		}
		if indexed {
			return r
		}
	}
	byName := make([]int, len(pool))
	for i := range byName {
		byName[i] = i
	}
	sort.SliceStable(byName, func(a, b int) bool { return pool[byName[a]].Name < pool[byName[b]].Name })
	for k, i := range byName {
		r[i] = k
		if k > 0 && pool[i].Name == pool[byName[k-1]].Name {
			r[i] = r[byName[k-1]]
		}
	}
	return r
}

// pairCost is the (possibly approximated) transfer cost between two
// pool indices: the exact matrix value when precomputed, otherwise the
// mean of the two hosts' sampled distances.
func (m *selModel) pairCost(i, j int) float64 {
	if m.cost != nil {
		return m.cost[i][j]
	}
	return (m.dist[i] + m.dist[j]) / 2
}

// surrogate scores a candidate membership from its running sums: the
// seconds one "unit" of work plus one mean border exchange would take on
// the set's aggregate deliverable speed — the same shape as the true
// estimator (compute term shrinks with Σeff, communication term grows
// with pair cost), cheap enough to evaluate per move. Lower is better.
func surrogate(sumEff, sumPair float64, k int) float64 {
	if k <= 0 || sumEff <= 0 {
		return math.Inf(1)
	}
	meanPair := 0.0
	if k >= 2 {
		meanPair = sumPair / float64(k*(k-1)/2)
	}
	return (1 + meanPair) / sumEff
}

// selState is one candidate membership under incremental surrogate
// scoring. Members are tracked as a bitset over pool indices; sums
// update in O(k) exact mode / O(1) sampled mode per add.
type selState struct {
	member  []bool
	idxs    []int // members, ascending pool index
	sumEff  float64
	sumPair float64
}

func newSelState(n int) *selState {
	return &selState{member: make([]bool, n)}
}

func (s *selState) clone() *selState {
	c := &selState{
		member:  append([]bool(nil), s.member...),
		idxs:    append([]int(nil), s.idxs...),
		sumEff:  s.sumEff,
		sumPair: s.sumPair,
	}
	return c
}

// addPairDelta is the surrogate pair-sum increase from adding pool
// index i to the state.
func (m *selModel) addPairDelta(s *selState, i int) float64 {
	if m.cost != nil {
		d := 0.0
		for _, j := range s.idxs {
			d += m.cost[i][j]
		}
		return d
	}
	// Sampled mode: i pairs with each existing member at the mean of
	// their per-host distances.
	return (m.dist[i]*float64(len(s.idxs)) + sumDist(m, s)) / 2
}

func sumDist(m *selModel, s *selState) float64 {
	d := 0.0
	for _, j := range s.idxs {
		d += m.dist[j]
	}
	return d
}

// add inserts pool index i (must not be a member).
func (m *selModel) add(s *selState, i int) {
	s.sumPair += m.addPairDelta(s, i)
	s.sumEff += m.eff[i]
	s.member[i] = true
	pos := sort.SearchInts(s.idxs, i)
	s.idxs = append(s.idxs, 0)
	copy(s.idxs[pos+1:], s.idxs[pos:])
	s.idxs[pos] = i
}

// remove deletes pool index i (must be a member).
func (m *selModel) remove(s *selState, i int) {
	s.member[i] = false
	pos := sort.SearchInts(s.idxs, i)
	s.idxs = append(s.idxs[:pos], s.idxs[pos+1:]...)
	s.sumEff -= m.eff[i]
	s.sumPair -= m.addPairDelta(s, i)
}

// score is the state's current surrogate value.
func (m *selModel) score(s *selState) float64 {
	return surrogate(s.sumEff, s.sumPair, len(s.idxs))
}

// key is the state's canonical membership identity for dedup and
// deterministic tie-breaks.
func (s *selState) key() string {
	var sb strings.Builder
	for _, i := range s.idxs {
		sb.WriteString(strconv.Itoa(i))
		sb.WriteByte(',')
	}
	return sb.String()
}

// chain lays a membership out as a fresh strip chain of pool indices:
// its members in eff-seed order (eff desc, name asc), laid out by
// layout. The chain is the caller's; the model's scratch is not, so
// calls must not overlap.
func (m *selModel) chain(idxs []int) []int {
	left := 0
	for _, i := range idxs {
		if !m.mark[i] {
			m.mark[i] = true
			left++
		}
	}
	ordered := m.ordered[:0]
	for _, i := range m.effOrder {
		if left == 0 {
			break
		}
		if m.mark[i] {
			m.mark[i] = false
			ordered = append(ordered, i)
			left--
		}
	}
	m.layout(ordered)
	return slices.Clone(ordered)
}

// layout is the one strip-chain layout, shared by the selectors' chain
// and every ranking-bit mask's orderMask (the exhaustive enumeration,
// the bounded walk's kept sets and a ReschedSession's). It reorders
// members (pool indices in eff-seed order) in place into strip-chain
// order. With exact pair costs it is greedy nearest neighbor by
// transfer cost, seeded at the first member, ties broken by name, so
// logically close hosts are strip neighbors (§3.3). With sampled
// distances it groups the members by site, sites in order of first
// appearance and members keeping their order within a site — O(pool +
// k) by siteGrouper's counting sort, keeping same-switch hosts
// adjacent, which is what the nearest-neighbor pass does on cluster
// topologies anyway.
func (m *selModel) layout(members []int) {
	if len(members) == 0 {
		return
	}
	if m.cost == nil {
		m.sites.group(members, append(m.rem[:0], members...))
		return
	}
	cur := members[0]
	rem := append(m.rem[:0], members[1:]...)
	for pos := 1; len(rem) > 0; pos++ {
		bestI, bestCost := 0, math.Inf(1)
		for i, idx := range rem {
			if c := m.cost[cur][idx]; c < bestCost || (c == bestCost && m.nameRank[idx] < m.nameRank[rem[bestI]]) {
				bestI, bestCost = i, c
			}
		}
		cur = rem[bestI]
		members[pos] = cur
		rem = append(rem[:bestI], rem[bestI+1:]...)
	}
}

// prefixSizes are the candidate-set sizes every heuristic selector
// yields as desirability-ranking prefixes: every size on small pools,
// 1..32 then a ×1.5 geometric ladder (always ending at the full pool)
// beyond. The evaluation cost of the ladder is its size sum — ×1.5
// keeps that at ~3 pool-lengths, so a 2048-host round stays inside the
// interactive budget while still bracketing the best pool fraction
// within 50%.
func prefixSizes(n int) []int {
	if n <= 64 {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = i + 1
		}
		return sizes
	}
	var sizes []int
	for k := 1; k <= 32; k++ {
		sizes = append(sizes, k)
	}
	last := 32
	for last < n {
		next := last * 3 / 2
		if next > n {
			next = n
		}
		sizes = append(sizes, next)
		last = next
	}
	return sizes
}

// truncation is the shared cap bookkeeping the heuristic selectors embed
// for their round plan's Truncated.
type truncation struct {
	dropped int
	capped  bool
}

// Truncated reports the sets the cap cut from the last enumeration.
func (t *truncation) Truncated() (int, bool) { return t.dropped, t.capped }
