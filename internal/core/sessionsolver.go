package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/partition"
	"apples/internal/userspec"
)

// This file holds the one Jacobi strip solver: the fused Planner +
// Performance Estimator every scheduling path prices a chain with —
// the Coordinator round behind Agent.Schedule, SchedService, Run,
// Rescheduler, WaitOrRun, ScheduleExplained and Candidates, and the
// ReschedSession's rounds. The one feeder (feed) writes the strip cost
// model's per-host columns for one chain into a stripKernel from a
// round's pool columns (hostpool.go); the kernel then balances, rounds
// and prices that chain in place, with no allocation. Only the winner,
// or a requested top-k, is ever built into a partition.Placement.
//
// The kernel reproduces partition.TimeBalanced, partition's
// largest-remainder rounding, and the estimator's spill-priced
// iteration time operation for operation (same association order, same
// comparisons, same tie-breaks), so its results are bit-identical to
// the allocating planner+estimator pair kept in planner_test.go and
// estimator_test.go as the oracle (pinned by kernel_test.go); every
// condition that pair reports an error for reports ok=false here.

// stripModel holds the per-problem constants of the Jacobi strip cost
// model: the n×n problem, the template's task and border volumes, the
// user's metric, and the spill penalty.
type stripModel struct {
	n          int
	iterations int
	metric     userspec.Metric

	flopPerUnit  float64
	bytesPerUnit float64
	borderBytes  float64 // per border point exchanged each iteration
	spillFactor  float64
}

// model resolves the agent's cost-model constants for an n×n
// problem.
func (a *Agent) model(n int) stripModel {
	task := a.tpl.Tasks[0]
	border := 0.0
	for _, c := range a.tpl.Comms {
		if c.Pattern == hat.NeighborExchange {
			border = c.BytesPerUnit
		}
	}
	return stripModel{
		n:            n,
		iterations:   max(a.tpl.Iterations, 1),
		metric:       a.spec.Metric,
		flopPerUnit:  task.FlopPerUnit,
		bytesPerUnit: task.BytesPerUnit,
		borderBytes:  border,
		spillFactor:  a.spillFactor,
	}
}

// borderSec is one strip border's per-iteration exchange cost over a
// route: send plus receive of edgeMB at the forecast bandwidth, floored
// at 1e-6 MB/s so a dead route prices as very slow instead of dividing
// by zero.
func borderSec(lat, bw, edgeMB float64) float64 {
	if bw <= 0 {
		bw = deadRouteBandwidth
	}
	return 2 * (lat + edgeMB/bw)
}

// stripKernel is the solver's working memory for one chain. A feeder
// fills the input columns for chain positions [0, k); solve then
// overwrites the working columns. Columns only ever grow, at least
// doubling, so a kernel reused across chains (the session's own, or one
// drawn from kernelPool per Coordinator evaluation) stops allocating
// once it has seen the longest chain, after O(log k) growths.
type stripKernel struct {
	// Inputs per chain position.
	chain   []int     // pool index of the host at each position
	secPP   []float64 // P_i: seconds per point
	commSec []float64 // C_i: border exchange seconds per iteration
	maxPts  []float64 // memory capacity in points (0 = unbounded)
	memMB   []float64 // physical memory for the spill check
	rate    []float64 // cost rate, 0 priced as 1 (read under MinCost only)

	// Balance, rounding and estimate working columns.
	relaxedMax []float64
	area       []float64
	state      []int // 0 active, 1 dropped, 2 capped
	rows       []int
	lrIdx      []int
	lrRem      []float64
	fracSort   fracSorter
}

// kernelPool hands each concurrent Coordinator evaluation a private
// kernel, so parallel workers never share working memory.
var kernelPool = sync.Pool{New: func() any { return new(stripKernel) }}

// reserve grows every column to hold a chain of k hosts: to k, or to
// twice the current length when that is larger.
func (kn *stripKernel) reserve(k int) {
	if len(kn.secPP) >= k {
		return
	}
	k = max(k, 2*len(kn.secPP))
	kn.chain = make([]int, k)
	kn.secPP = make([]float64, k)
	kn.commSec = make([]float64, k)
	kn.maxPts = make([]float64, k)
	kn.memMB = make([]float64, k)
	kn.rate = make([]float64, k)
	kn.relaxedMax = make([]float64, k)
	kn.area = make([]float64, k)
	kn.state = make([]int, k)
	kn.rows = make([]int, k)
	kn.lrIdx = make([]int, k)
	kn.lrRem = make([]float64, k)
}

// feed fills the input columns for the chain of pool indices
// kn.chain[:k] from a round's columns c — the strip cost model per
// host:
//
//	P_i = flop/point / (speed * availability * implementation factor)
//	C_i = sum over strip neighbors of 2*(latency + borderMB/bandwidth)
//	cap = host memory / bytes per point
//
// P_i comes from c, neighbor routes from its route accessor, the rest
// from its pool's static columns. It returns the position of the first
// host with no deliverable speed (the chain cannot be planned), or -1.
func (kn *stripKernel) feed(m *stripModel, c *poolCols, k int) int {
	hp, chain := c.pool, kn.chain[:k]
	edge := float64(m.n) * m.borderBytes / 1e6
	for i, p := range chain {
		secPP := c.secPP[p]
		if math.IsInf(secPP, 1) {
			return i
		}
		kn.secPP[i] = secPP
		comm := 0.0
		if i > 0 {
			lat, bw := c.route(p, chain[i-1])
			comm += borderSec(lat, bw, edge)
		}
		if i < k-1 {
			lat, bw := c.route(p, chain[i+1])
			comm += borderSec(lat, bw, edge)
		}
		kn.commSec[i] = comm
		kn.maxPts[i] = hp.capPts[p]
		kn.memMB[i] = hp.memMB[p]
		kn.rate[i] = hp.rate[p]
	}
	return -1
}

// solve balances, rounds and prices the fed chain of k hosts:
// partition.TimeBalanced's solve with its one-pass negative drop, cap
// iteration and capacity relaxation, largest-remainder rounding into
// kn.rows, and the spill-priced per-iteration time. ok is false
// wherever TimeBalanced returns an error: among others, for any P_i or
// C_i that is not finite, and for a balance that overflows.
func (kn *stripKernel) solve(m *stripModel, k int) (iterT float64, ok bool) {
	if k == 0 {
		return 0, false
	}
	for i := 0; i < k; i++ {
		// A non-finite P_i or C_i balances to NaN areas, which rounding
		// cannot place.
		if p, c := kn.secPP[i], kn.commSec[i]; !(p > 0 && p <= math.MaxFloat64) || !(c >= 0 && c <= math.MaxFloat64) {
			return 0, false
		}
	}
	n := m.n
	total := float64(n) * float64(n)
	capTotal, unbounded := 0.0, false
	for i := 0; i < k; i++ {
		if kn.maxPts[i] <= 0 {
			unbounded = true
			break
		}
		capTotal += kn.maxPts[i]
	}
	copy(kn.relaxedMax[:k], kn.maxPts[:k])
	if !unbounded && capTotal < total {
		scale := total / capTotal
		for i := 0; i < k; i++ {
			kn.relaxedMax[i] *= scale * 1.0001 // headroom for rounding
		}
	}
	for i := 0; i < k; i++ {
		kn.area[i] = 0
		kn.state[i] = 0
	}
	remaining := total
	converged := false
	for iter := 0; iter < 4*k+4; iter++ {
		sumInvP, sumCoverP := 0.0, 0.0
		active := 0
		for i := 0; i < k; i++ {
			if kn.state[i] != 0 {
				continue
			}
			active++
			sumInvP += 1 / kn.secPP[i]
			sumCoverP += kn.commSec[i] / kn.secPP[i]
		}
		if active == 0 {
			break
		}
		T := (remaining + sumCoverP) / sumInvP
		dropped := false
		worstOver, worstOverIdx := 0.0, -1
		for i := 0; i < k; i++ {
			if kn.state[i] != 0 {
				continue
			}
			a := (T - kn.commSec[i]) / kn.secPP[i]
			kn.area[i] = a
			if a < 0 {
				// Every host negative now stays negative after the
				// re-solve, so all of them drop together.
				kn.state[i] = 1
				kn.area[i] = 0
				dropped = true
				continue
			}
			if kn.relaxedMax[i] > 0 && a > kn.relaxedMax[i] {
				if over := a - kn.relaxedMax[i]; over > worstOver {
					worstOver, worstOverIdx = over, i
				}
			}
		}
		if dropped {
			continue
		}
		if worstOverIdx >= 0 {
			kn.state[worstOverIdx] = 2
			kn.area[worstOverIdx] = kn.relaxedMax[worstOverIdx]
			remaining -= kn.relaxedMax[worstOverIdx]
			continue
		}
		converged = true
		break
	}
	if !converged {
		return 0, false
	}
	for i := 0; i < k; i++ {
		// A balance that overflowed (C_i/P_i or 1/P_i beyond the float
		// range) leaves areas rounding cannot place.
		if a := kn.area[i]; math.IsNaN(a) || math.IsInf(a, 0) {
			return 0, false
		}
	}
	kn.roundRows(k, n)
	// The placement keeps only positive-row bands; it must cover the
	// domain and keep at least one band.
	points, bands := 0, 0
	for i := 0; i < k; i++ {
		if kn.rows[i] > 0 {
			points += kn.rows[i] * n
			bands++
		}
	}
	if points != n*n || bands == 0 {
		return 0, false
	}
	worst := 0.0
	for i := 0; i < k; i++ {
		if kn.rows[i] <= 0 {
			continue
		}
		if t := kn.bandSec(m, i, kn.rows[i]*n); t > worst {
			worst = t
		}
	}
	return worst, true
}

// bandSec prices pts points on chain position i for one iteration:
// points·P_i·spill multiplier + C_i, where a strip needing more memory
// than the host has is slowed in proportion to the spilled share.
func (kn *stripKernel) bandSec(m *stripModel, i, pts int) float64 {
	mult := 1.0
	if m.bytesPerUnit > 0 {
		needMB := float64(pts) * m.bytesPerUnit / 1e6
		if needMB > kn.memMB[i] {
			spill := (needMB - kn.memMB[i]) / needMB
			mult = 1 + spill*(m.spillFactor-1)
		}
	}
	return float64(pts)*kn.secPP[i]*mult + kn.commSec[i]
}

// roundRows applies partition's largest-remainder rounding to
// kn.area[:k] with total rows, writing kn.rows[:k] — same
// floor/remainder/tie-break and degenerate-dump sequence, without
// allocating. Only the r = total − assigned largest remainders gain a
// row, so it selects them in linear expected time instead of sorting
// all of them: (remainder desc, index asc) is a strict total order, so
// the selected set is the one a full sort puts first. A NaN remainder
// breaks that order, and then the remainders are sorted as partition
// sorts them.
func (kn *stripKernel) roundRows(k, total int) {
	for i := 0; i < k; i++ {
		kn.rows[i] = 0
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		if kn.area[i] > 0 {
			sum += kn.area[i]
		}
	}
	if sum == 0 || total <= 0 {
		return
	}
	assigned := 0
	nf := 0
	nan := false
	for i := 0; i < k; i++ {
		w := kn.area[i]
		if w <= 0 {
			continue
		}
		exact := float64(total) * w / sum
		fl := math.Floor(exact)
		kn.rows[i] = int(fl)
		assigned += int(fl)
		kn.lrIdx[nf] = i
		kn.lrRem[nf] = exact - fl
		nan = nan || math.IsNaN(kn.lrRem[nf])
		nf++
	}
	if r := min(total-assigned, nf); r > 0 {
		kn.fracSort = fracSorter{idx: kn.lrIdx[:nf], rem: kn.lrRem[:nf]}
		switch {
		case r == nf: // every remainder gains a row
		case nan:
			sort.Sort(&kn.fracSort)
		default:
			kn.fracSort.selectFirst(r)
		}
		for _, i := range kn.lrIdx[:r] {
			kn.rows[i]++
		}
		assigned += r
	}
	// Degenerate rounding shortfall (all remainders zero): dump on the
	// largest weight.
	for assigned < total {
		best := 0
		for i := 0; i < k; i++ {
			if kn.area[i] > kn.area[best] {
				best = i
			}
		}
		kn.rows[best]++
		assigned++
	}
}

// score converts a solved chain of k hosts into the user's objective
// (lower is better for every metric; speedup is negated against the
// solo baseline).
func (kn *stripKernel) score(m *stripModel, k int, iterT, solo float64) float64 {
	total := iterT * float64(m.iterations)
	switch m.metric {
	case userspec.MaxSpeedup:
		if total <= 0 {
			return math.Inf(1)
		}
		return -solo / total
	case userspec.MinCost:
		cost := 0.0
		for i := 0; i < k; i++ {
			if kn.rows[i] <= 0 {
				continue
			}
			cost += total / 3600 * kn.rate[i]
		}
		return cost
	default:
		return total
	}
}

// estimate prices an existing placement over the chain kn.chain[:k] of
// its worked assignments (Points > 0, hosts known to tp) in placement
// order, fed from c: the worst band time, +Inf when a worked host is
// unknown to the topology, and an error when one has no deliverable
// speed.
func (kn *stripKernel) estimate(m *stripModel, c *poolCols, k int, tp *grid.Topology, p *partition.Placement) (float64, error) {
	if bad := kn.feed(m, c, k); bad >= 0 {
		return 0, fmt.Errorf("core: host %s has no deliverable speed", c.pool.hosts[kn.chain[bad]].Name)
	}
	worst, pos := 0.0, 0
	for _, asg := range p.Assignments {
		if asg.Points == 0 {
			continue
		}
		if tp.Host(asg.Host) == nil {
			return math.Inf(1), nil
		}
		if t := kn.bandSec(m, pos, asg.Points); t > worst {
			worst = t
		}
		pos++
	}
	return worst, nil
}

// placement assembles the solved chain's strip placement: contiguous
// row bands in chain order, zero-row hosts dropped, each interior
// boundary exchanging n·borderBytes each way (partition's strip shape,
// including nil Borders on a single band). hosts[i] names chain
// position i. Every band's Borders is carved from one backing array.
func (kn *stripKernel) placement(m *stripModel, hosts []string) *partition.Placement {
	bands := 0
	for i := range hosts {
		if kn.rows[i] > 0 {
			bands++
		}
	}
	edge := float64(m.n) * m.borderBytes
	p := &partition.Placement{N: m.n, Kind: "strip", Assignments: make([]partition.Assignment, 0, bands)}
	var borders []partition.Border
	if bands > 1 {
		borders = make([]partition.Border, 2*bands)
	}
	prev := -1
	for i, h := range hosts {
		if kn.rows[i] <= 0 {
			continue
		}
		a := partition.Assignment{Host: h, Rows: kn.rows[i], Points: kn.rows[i] * m.n}
		if bands > 1 {
			b := 2 * len(p.Assignments)
			a.Borders = borders[b : b : b+2]
		}
		if prev >= 0 {
			a.Borders = append(a.Borders, partition.Border{Peer: hosts[prev], Bytes: edge})
			last := &p.Assignments[len(p.Assignments)-1]
			last.Borders = append(last.Borders, partition.Border{Peer: h, Bytes: edge})
		}
		p.Assignments = append(p.Assignments, a)
		prev = i
	}
	return p
}

// schedule builds the reported *Schedule for a chain solved into kn:
// its strip placement, and hosts (chain order, owned by the schedule)
// reordered by placement share, larger first, ties keeping chain order.
// A chain's hosts are distinct, so each host's share is its own band's
// rows·n/n² (0 for a dropped host). The order sorts on (share desc,
// chain position asc) in the kernel's rounding scratch, a total order,
// so it is the permutation a stable sort on share gives. The caller
// fills the source and candidate counters.
func (kn *stripKernel) schedule(m *stripModel, hosts []string, iterT float64) *Schedule {
	p := kn.placement(m, hosts)
	n2 := float64(m.n) * float64(m.n)
	k := len(hosts)
	for i := range hosts {
		kn.lrIdx[i] = i
		kn.lrRem[i] = float64(kn.rows[i]*m.n) / n2
	}
	kn.fracSort = fracSorter{idx: kn.lrIdx[:k], rem: kn.lrRem[:k], names: hosts}
	sort.Sort(&kn.fracSort)
	kn.fracSort.names = nil
	return &Schedule{
		Placement:         p,
		PredictedIterTime: iterT,
		PredictedTotal:    iterT * float64(m.iterations),
		Hosts:             hosts,
	}
}

// fracSorter orders values descending, index ascending: largest-
// remainder fractions in partition.largestRemainder's total order, and
// a schedule's placement shares by chain position. names, when set, is
// permuted alongside.
type fracSorter struct {
	idx   []int
	rem   []float64
	names []string
}

func (s *fracSorter) Len() int { return len(s.idx) }
func (s *fracSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.rem[i], s.rem[j] = s.rem[j], s.rem[i]
	if s.names != nil {
		s.names[i], s.names[j] = s.names[j], s.names[i]
	}
}
func (s *fracSorter) Less(i, j int) bool {
	if s.rem[i] != s.rem[j] {
		return s.rem[i] > s.rem[j]
	}
	return s.idx[i] < s.idx[j]
}

// selectFirst moves the r entries that come first in s's order into
// [0, r), in no particular order: quickselect with a median-of-three
// pivot. With no NaN value the order is total, so that is the set a
// full sort puts first. A range still unresolved after 2·log₂(len)
// partitions is sorted instead, which bounds the worst case at
// O(n log n). r must be in (0, len), and names unset.
func (s *fracSorter) selectFirst(r int) {
	lo, hi := 0, len(s.idx)
	for budget := 2 * bits.Len(uint(hi)); lo < r && r < hi; budget-- {
		if budget == 0 {
			idx, rem := s.idx, s.rem
			s.idx, s.rem = idx[lo:hi], rem[lo:hi]
			sort.Sort(s)
			s.idx, s.rem = idx, rem
			return
		}
		if p := s.partition(lo, hi); p < r {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

// partition places the median of [lo, hi)'s first, middle and last
// entries at its final position p within the range, the entries before
// it in s's order below p and the rest above, and returns p. hi-lo must
// be at least 2.
func (s *fracSorter) partition(lo, hi int) int {
	mid, last := lo+(hi-lo)/2, hi-1
	if s.Less(mid, lo) {
		s.Swap(mid, lo)
	}
	if s.Less(last, lo) {
		s.Swap(last, lo)
	}
	if s.Less(mid, last) {
		s.Swap(mid, last)
	}
	p := lo
	for i := lo; i < last; i++ {
		if s.Less(i, last) {
			s.Swap(i, p)
			p++
		}
	}
	s.Swap(p, last)
	return p
}

// siteGrouper lays chain members out grouped by site — sites in order
// of their first appearance among the members, members keeping their
// order within a site: selModel.layout's chain when distances are
// sampled. It is a stable counting sort over dense site ids, O(k) per
// call in reused memory.
type siteGrouper struct {
	siteID []int // per pool index; shared by every clone
	rank   []int // per site id: first-appearance rank, -1 between calls
	off    []int // per rank: bucket offset
}

// newSiteGrouper numbers pool's sites, once per pool set-up.
func newSiteGrouper(pool []*grid.Host) siteGrouper {
	siteOf := make(map[string]int)
	g := siteGrouper{siteID: make([]int, len(pool))}
	for i, h := range pool {
		id, ok := siteOf[h.Site]
		if !ok {
			id = len(siteOf)
			siteOf[h.Site] = id
		}
		g.siteID[i] = id
	}
	g.rank = make([]int, len(siteOf))
	for i := range g.rank {
		g.rank[i] = -1
	}
	g.off = make([]int, len(siteOf))
	return g
}

// clone returns a grouper over g's site ids with its own scratch: each
// model groups on its own clone, so concurrent rounds over one pool
// never share scratch.
func (g siteGrouper) clone() siteGrouper {
	return siteGrouper{siteID: g.siteID, rank: slices.Clone(g.rank), off: make([]int, len(g.off))}
}

// group writes members, grouped by site, into out[:len(members)].
func (g *siteGrouper) group(out, members []int) {
	sites := 0
	for _, i := range members {
		sid := g.siteID[i]
		if g.rank[sid] < 0 {
			g.rank[sid] = sites
			g.off[sites] = 0
			sites++
		}
		g.off[g.rank[sid]]++
	}
	pos := 0
	for r := 0; r < sites; r++ {
		pos, g.off[r] = pos+g.off[r], pos
	}
	for _, i := range members {
		r := g.rank[g.siteID[i]]
		out[g.off[r]] = i
		g.off[r]++
	}
	for _, i := range members {
		g.rank[g.siteID[i]] = -1
	}
}
