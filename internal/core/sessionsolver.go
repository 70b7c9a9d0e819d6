package core

import (
	"fmt"
	"math"
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
// ReschedSession's delta rounds. A feeder writes the strip cost model's
// per-host columns for one chain into a stripKernel (from a round's
// Information view, or from the session's refreshed arrays); the
// kernel then balances, rounds and prices that chain in place, with no
// allocation. Only the winner, or a requested top-k, is ever built into
// a partition.Placement.
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
		bw = 1e-6
	}
	return 2 * (lat + edgeMB/bw)
}

// stripKernel is the solver's working memory for one chain. A feeder
// fills the input columns for chain positions [0, k); solve then
// overwrites the working columns. Columns only ever grow, so a kernel
// reused across chains (the session's own, or one drawn from
// kernelPool per Coordinator evaluation) stops allocating once it has
// seen the longest chain.
type stripKernel struct {
	// Inputs per chain position.
	secPP   []float64 // P_i: seconds per point
	commSec []float64 // C_i: border exchange seconds per iteration
	maxPts  []float64 // memory capacity in points (0 = unbounded)
	memMB   []float64 // physical memory for the spill check
	rate    []float64 // userspec cost rate (read under MinCost only)

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

// reserve grows every column to hold a chain of k hosts.
func (kn *stripKernel) reserve(k int) {
	if len(kn.secPP) >= k {
		return
	}
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

// feedSet fills the input columns for chain set from a round's
// information view — the strip cost model per host:
//
//	P_i = flop/point / (speed * availability * implementation factor)
//	C_i = sum over strip neighbors of 2*(latency + borderMB/bandwidth)
//	cap = host memory / bytes per point
//
// It returns the position of the first host with no deliverable speed
// (the chain cannot be planned), or -1.
func (kn *stripKernel) feedSet(m *stripModel, task *hat.Task, spec *userspec.Spec, info Information, set []*grid.Host) int {
	k := len(set)
	kn.reserve(k)
	edge := float64(m.n) * m.borderBytes / 1e6
	for i, h := range set {
		avail := floorAvailability(info.Availability(h.Name))
		speed := h.Speed * avail * task.SpeedFactorOn(h.Arch) // Mflop/s deliverable
		if speed <= 0 {
			return i
		}
		kn.secPP[i] = m.flopPerUnit / 1e6 / speed
		comm := 0.0
		if i > 0 {
			comm += borderSec(info.RouteLatency(h.Name, set[i-1].Name), info.RouteBandwidth(h.Name, set[i-1].Name), edge)
		}
		if i < k-1 {
			comm += borderSec(info.RouteLatency(h.Name, set[i+1].Name), info.RouteBandwidth(h.Name, set[i+1].Name), edge)
		}
		kn.commSec[i] = comm
		kn.maxPts[i] = 0
		if m.bytesPerUnit > 0 {
			kn.maxPts[i] = h.MemoryMB * 1e6 / m.bytesPerUnit
		}
		kn.memMB[i] = h.MemoryMB
		if m.metric == userspec.MinCost {
			kn.rate[i] = spec.CostRate(h.Name)
		}
	}
	return -1
}

// solve balances, rounds and prices the fed chain of k hosts:
// partition.TimeBalanced's solve with its one-pass negative drop, cap
// iteration and capacity relaxation, largest-remainder rounding into
// kn.rows, and the spill-priced per-iteration time. ok is false
// wherever TimeBalanced returns an error.
func (kn *stripKernel) solve(m *stripModel, k int) (iterT float64, ok bool) {
	if k == 0 {
		return 0, false
	}
	for i := 0; i < k; i++ {
		if kn.secPP[i] <= 0 || kn.commSec[i] < 0 {
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
// allocating.
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
		nf++
	}
	kn.fracSort.idx = kn.lrIdx[:nf]
	kn.fracSort.rem = kn.lrRem[:nf]
	sort.Sort(&kn.fracSort)
	for f := 0; assigned < total && f < nf; f++ {
		kn.rows[kn.lrIdx[f]]++
		assigned++
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
			rate := kn.rate[i]
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

// estimateAssignments prices an existing placement over columns fed
// for its worked assignments (Points > 0, hosts known to tp) in
// placement order: the worst band time, +Inf when a worked host is
// unknown to the topology.
func (kn *stripKernel) estimateAssignments(m *stripModel, tp *grid.Topology, p *partition.Placement) float64 {
	worst, pos := 0.0, 0
	for _, asg := range p.Assignments {
		if asg.Points == 0 {
			continue
		}
		if tp.Host(asg.Host) == nil {
			return math.Inf(1)
		}
		if t := kn.bandSec(m, pos, asg.Points); t > worst {
			worst = t
		}
		pos++
	}
	return worst
}

// placement assembles the solved chain's strip placement: contiguous
// row bands in chain order, zero-row hosts dropped, each interior
// boundary exchanging n·borderBytes each way (partition's strip shape,
// including nil Borders on a single band). hosts[i] names chain
// position i.
func (kn *stripKernel) placement(m *stripModel, hosts []string) *partition.Placement {
	bands := 0
	for i := range hosts {
		if kn.rows[i] > 0 {
			bands++
		}
	}
	edge := float64(m.n) * m.borderBytes
	p := &partition.Placement{N: m.n, Kind: "strip", Assignments: make([]partition.Assignment, 0, bands)}
	prev := -1
	for i, h := range hosts {
		if kn.rows[i] <= 0 {
			continue
		}
		a := partition.Assignment{Host: h, Rows: kn.rows[i], Points: kn.rows[i] * m.n}
		if bands > 1 {
			a.Borders = make([]partition.Border, 0, 2)
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
// Shares come from one pass over the assignments, the first match for
// a host winning as in Placement.Fraction. The caller fills the source
// and candidate counters.
func (kn *stripKernel) schedule(m *stripModel, hosts []string, iterT float64) *Schedule {
	p := kn.placement(m, hosts)
	n2 := float64(p.N) * float64(p.N)
	first := make(map[string]float64, len(p.Assignments))
	for _, a := range p.Assignments {
		if _, ok := first[a.Host]; !ok {
			first[a.Host] = float64(a.Points) / n2
		}
	}
	order := byShare{hosts: hosts, share: make([]float64, len(hosts))}
	for i, h := range hosts {
		order.share[i] = first[h]
	}
	sort.Stable(order)
	return &Schedule{
		Placement:         p,
		PredictedIterTime: iterT,
		PredictedTotal:    iterT * float64(m.iterations),
		Hosts:             hosts,
	}
}

// byShare orders hosts by their aligned placement share, larger first.
// Shares are resolved before sorting so a comparison is two array
// reads; with sort.Stable, ties keep chain order.
type byShare struct {
	hosts []string
	share []float64
}

func (b byShare) Len() int           { return len(b.hosts) }
func (b byShare) Less(i, j int) bool { return b.share[i] > b.share[j] }
func (b byShare) Swap(i, j int) {
	b.hosts[i], b.hosts[j] = b.hosts[j], b.hosts[i]
	b.share[i], b.share[j] = b.share[j], b.share[i]
}

// effSorter orders pool indices by deliverable speed descending, name
// ascending — the chain seed order of orderChain and selModel. It is a
// pre-stored sort.Interface value so the hot path avoids the closure
// allocation of sort.Slice; the comparator is a total order, so any
// correct sort yields the same permutation the closures would.
type effSorter struct {
	idx   []int
	eff   []float64
	names []string
}

func (s *effSorter) Len() int      { return len(s.idx) }
func (s *effSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *effSorter) Less(i, j int) bool {
	a, b := s.idx[i], s.idx[j]
	if s.eff[a] != s.eff[b] {
		return s.eff[a] > s.eff[b]
	}
	return s.names[a] < s.names[b]
}

// fracSorter orders largest-remainder fractions descending, index
// ascending — partition.largestRemainder's total order.
type fracSorter struct {
	idx []int
	rem []float64
}

func (s *fracSorter) Len() int { return len(s.idx) }
func (s *fracSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.rem[i], s.rem[j] = s.rem[j], s.rem[i]
}
func (s *fracSorter) Less(i, j int) bool {
	if s.rem[i] != s.rem[j] {
		return s.rem[i] > s.rem[j]
	}
	return s.idx[i] < s.idx[j]
}

// siteSorter stably orders members by their site's first appearance in
// the eff ranking — selModel.chain's large-pool layout. Used with
// sort.Stable only: the comparator is not total, and stability is what
// pins the permutation to sort.SliceStable's.
type siteSorter struct {
	idx    []int
	siteID []int
	first  []int
}

func (s *siteSorter) Len() int      { return len(s.idx) }
func (s *siteSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *siteSorter) Less(i, j int) bool {
	return s.first[s.siteID[s.idx[i]]] < s.first[s.siteID[s.idx[j]]]
}

// sessionScratch is the ReschedSession's reusable chain-layout memory,
// sized once at construction so the steady-state path never allocates.
// It belongs to the session and is overwritten by every chainFor call;
// nothing the session returns to callers aliases it.
type sessionScratch struct {
	eff      []float64 // deliverable speed per pool index (raw availability)
	effOrder []int     // pool indices by eff desc, name asc

	touched     []uint64 // hosts whose inputs changed this round
	linkTouched []uint64 // hosts reached through changed links

	members []int // candidate members in eff-seed order
	chain   []int // strip-chain order (pool indices)
	rem     []int // greedy nearest-neighbor worklist

	// Site-aware chain (large heuristic pools): first-appearance rank per
	// site id, invalidated by epoch instead of clearing.
	siteFirst []int
	siteEpoch []int
	epoch     int

	effSort  effSorter
	siteSort siteSorter
}

func (scr *sessionScratch) init(np, words int) {
	scr.eff = make([]float64, np)
	scr.effOrder = make([]int, np)
	scr.touched = make([]uint64, words)
	scr.linkTouched = make([]uint64, words)
	scr.members = make([]int, np)
	scr.chain = make([]int, np)
	scr.rem = make([]int, np)
}

// routeBW composes pair (i,j)'s bandwidth: the frozen pair array when
// present, otherwise the bottleneck min over frozen link bandwidths in
// route order (linkSnapshot's composition, bit for bit).
func (s *ReschedSession) routeBW(i, j int) float64 {
	if s.pairArrays {
		return s.pairBW[i*len(s.pool)+j]
	}
	bw := 1e30
	for _, l := range s.rtp.Route(s.names[i], s.names[j]) {
		if li, ok := s.linkIdx[l]; ok && s.linkBW[li] < bw {
			bw = s.linkBW[li]
		}
	}
	return bw
}

// routeLat composes pair (i,j)'s latency: frozen pair array or the sum
// of static link latencies in route order.
func (s *ReschedSession) routeLat(i, j int) float64 {
	if s.pairArrays {
		return s.pairLat[i*len(s.pool)+j]
	}
	lat := 0.0
	for _, l := range s.rtp.Route(s.names[i], s.names[j]) {
		lat += l.Latency
	}
	return lat
}

// costAt is the chain transfer cost between pool indices: latency plus
// seconds per nominal MB on the (floored) route bandwidth — the value
// orderChain and selModel.cost compute.
func (s *ReschedSession) costAt(i, j int) float64 {
	if s.pairArrays {
		return s.cost[i*len(s.pool)+j]
	}
	bw := s.routeBW(i, j)
	if bw <= 0 {
		bw = 1e-6
	}
	return s.routeLat(i, j) + 1.0/bw
}

// chainFor lays candidate mask out as a strip chain into scr.chain and
// returns its length: members filtered from the eff order, then greedy
// nearest-neighbor by transfer cost (orderChain / exhaustive-selector
// layout) or, for large heuristic pools, the site-aware stable order
// (selModel.chain layout).
func (s *ReschedSession) chainFor(mask []uint64) int {
	scr := &s.scr
	k := 0
	for _, idx := range scr.effOrder {
		if maskTest(mask, idx) {
			scr.members[k] = idx
			k++
		}
	}
	if k == 0 {
		return 0
	}
	if k == 1 {
		scr.chain[0] = scr.members[0]
		return 1
	}
	if s.siteChain {
		scr.epoch++
		rank := 0
		for i := 0; i < k; i++ {
			sid := s.siteID[scr.members[i]]
			if scr.siteEpoch[sid] != scr.epoch {
				scr.siteEpoch[sid] = scr.epoch
				scr.siteFirst[sid] = rank
				rank++
			}
		}
		copy(scr.chain[:k], scr.members[:k])
		scr.siteSort.idx = scr.chain[:k]
		sort.Stable(&scr.siteSort)
		return k
	}
	cur := scr.members[0]
	scr.chain[0] = cur
	rem := scr.rem[:k-1]
	copy(rem, scr.members[1:k])
	pos := 1
	for len(rem) > 0 {
		bestI, bestCost := 0, math.Inf(1)
		for i, idx := range rem {
			if c := s.costAt(cur, idx); c < bestCost || (c == bestCost && s.names[idx] < s.names[rem[bestI]]) {
				bestI, bestCost = i, c
			}
		}
		cur = rem[bestI]
		scr.chain[pos] = cur
		pos++
		rem = append(rem[:bestI], rem[bestI+1:]...)
	}
	return k
}

// feed fills the kernel's input columns for scr.chain[:k] from the
// session's refreshed arrays — feedSet's formulas over frozen pool
// indices. It returns the chain position of the first host with no
// deliverable speed, or -1.
func (s *ReschedSession) feed(k int) int {
	kn, chain := &s.kn, s.scr.chain
	edge := float64(s.m.n) * s.m.borderBytes / 1e6
	for i := 0; i < k; i++ {
		h := chain[i]
		avail := floorAvailability(s.avail[h])
		speed := s.speed[h] * avail * s.factor[h]
		if speed <= 0 {
			return i
		}
		kn.secPP[i] = s.m.flopPerUnit / 1e6 / speed
		comm := 0.0
		if i > 0 {
			comm += borderSec(s.routeLat(h, chain[i-1]), s.routeBW(h, chain[i-1]), edge)
		}
		if i < k-1 {
			comm += borderSec(s.routeLat(h, chain[i+1]), s.routeBW(h, chain[i+1]), edge)
		}
		kn.commSec[i] = comm
		kn.maxPts[i] = s.capPts[h]
		kn.memMB[i] = s.memMB[h]
		kn.rate[i] = s.rate[h]
	}
	return -1
}

// solveChain feeds and solves scr.chain[:k]; kn.rows holds the row
// counts afterwards.
func (s *ReschedSession) solveChain(k int) (iterT float64, ok bool) {
	if s.feed(k) >= 0 {
		return 0, false
	}
	return s.kn.solve(&s.m, k)
}

// EstimatePlacement prices an existing placement under the inputs of
// the session's most recent Round refresh — the allocation-free twin of
// Agent.EstimatePlacement, sharing one refresh per tick instead of
// building a fresh snapshot per call. Placements touching hosts outside
// the frozen pool (or predating the first Round) delegate to the agent.
func (s *ReschedSession) EstimatePlacement(p *partition.Placement) (float64, error) {
	if s.rounds == 0 {
		return s.a.EstimatePlacement(s.m.n, p)
	}
	k := 0
	for _, asg := range p.Assignments {
		if asg.Points == 0 || s.a.tp.Host(asg.Host) == nil {
			continue
		}
		idx, ok := s.poolIdx[asg.Host]
		if !ok || k >= len(s.scr.chain) {
			return s.a.EstimatePlacement(s.m.n, p)
		}
		s.scr.chain[k] = idx
		k++
	}
	if bad := s.feed(k); bad >= 0 {
		return 0, fmt.Errorf("core: host %s has no deliverable speed", s.names[s.scr.chain[bad]])
	}
	return s.kn.estimateAssignments(&s.m, s.a.tp, p), nil
}
