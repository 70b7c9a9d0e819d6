package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"apples/internal/grid"
	"apples/internal/obs"
	"apples/internal/userspec"
)

// ReschedSession is the delta-aware, allocation-free rescheduling loop:
// the same decision Agent.Schedule makes, restructured for being asked
// again and again at kHz rates as forecasts drift.
//
// At construction the session freezes the candidate universe — the
// US-filtered pool in filter order and the exact candidate sets the
// agent's Resource Selector enumerates against the information current
// then — and represents each set as a bitmask over the frozen pool
// ordering ([]uint64, one word up to 64 hosts, chunked beyond). Every
// static per-host coefficient (speed, implementation factor, memory
// capacity, cost rate) is resolved into flat arrays once.
//
// Each Round() then:
//
//  1. re-reads the dynamic inputs (per-host availability; per-link
//     bandwidth for batched sources, per-pair values otherwise) into the
//     same arrays and diffs them against the previous round, building a
//     touched-host bitmask (a changed link touches both endpoints of
//     every frozen route that traverses it — a conservative superset);
//  2. re-plans the universe. Under MinExecutionTime with a spill factor
//     ≥ 1, where the compute bound is sound (Agent.hasComputeBound), the
//     round is bounded: it re-prices the previous winner as the
//     incumbent, then walks the universe in enumeration order, skipping
//     every set whose compute bound over a per-host point-rate column
//     exceeds the incumbent and planning the rest. Under MaxSpeedup and
//     MinCost, which have no sound bound, it re-plans only candidates
//     whose membership mask intersects the touched mask and keeps the
//     cached scores of the others (under MaxSpeedup a changed solo
//     baseline rescales them from the cached totals — same values the
//     estimator would compute, no re-planning);
//  3. reduces with the Coordinator's (score, index) rule over the frozen
//     enumeration order and re-materializes the winning *Schedule only
//     when the winner changed or its inputs did.
//
// A round where nothing changed performs O(hosts + links) comparisons
// and returns the cached schedule — zero allocations (gated by
// TestSessionSteadyStateAllocFree). The solver never allocates either:
// chains, cost rows, balance areas, and row counts live in
// session-owned scratch reused across rounds.
//
// Equivalence: the first Round() picks the schedule
// Agent.ScheduleExplained(n, k) returns at the same instant, and every
// later Round() the one FullRound() picks; FullRound re-plans the entire
// frozen universe without a bound (the parity suite in session_test.go
// pins both, DeepEqual on schedules and float bits on scores). Only
// CandidatesPlanned differs on bounded rounds: a skipped set scores
// above the final best, so it can change neither the winner nor its
// tie-break, but it is not counted as planned. The session deliberately
// pins candidate *membership* at creation: availability drift re-prices
// and re-orders every chain but does not re-run desirability ranking,
// so heuristic selectors keep the universe they opened with (exhaustive
// pools ≤12 hosts enumerate every subset, so for them the universe
// never depends on information).
//
// The returned *Schedule is owned by the session: it stays valid until
// a later Round re-materializes the winner, and its candidate counters
// are refreshed in place on carried rounds. Copy it if you need a
// round-frozen snapshot. A session is not safe for concurrent use.
type ReschedSession struct {
	a *Agent
	m stripModel

	// Frozen pool, in userspec filter order. poolIdx inverts names to
	// frozen indices; every per-host array below is indexed by it.
	pool    []*grid.Host
	names   []string
	poolIdx map[string]int

	speed  []float64 // dedicated Mflop/s
	factor []float64 // implementation SpeedFactorOn(arch)
	capPts []float64 // memory capacity in points (0 = unbounded)
	memMB  []float64 // physical memory for the spill check
	rate   []float64 // userspec cost rate (0 -> priced as 1)
	avail  []float64 // last refreshed availability

	// Batched link mode (sources implementing routeBatcher): per-link
	// bandwidth is refreshed and diffed by grid.Link.Index, and
	// linkMask[l] records which pool hosts have a frozen route through
	// link l. tidx holds each pool host's dense index in rtp (-1 when
	// rtp does not know it: no route).
	rb       routeBatcher
	rtp      *grid.Topology // route topology for link composition
	tidx     []int
	links    []*grid.Link
	linkBW   []float64
	linkMask []uint64 // len(links)*words, stride words

	// Pair arrays (pools ≤ selExactPairHosts, and every non-batched
	// source): bandwidth/latency per ordered pair plus the derived chain
	// transfer cost, flattened n×n. Larger batched pools skip these and
	// compose route values lazily from linkBW, mirroring linkSnapshot.
	pairArrays bool
	pairBW     []float64
	pairLat    []float64
	cost       []float64

	// siteChain mirrors selModel.chain's large-pool layout: heuristic
	// selectors past selExactPairHosts group members by site instead of
	// greedy nearest-neighbor.
	siteChain bool
	sites     siteGrouper

	// Frozen candidate universe: candCount membership masks of `words`
	// words each, in the selector's enumeration order, plus per-candidate
	// score caches.
	words     int
	candMask  []uint64
	candCount int

	score    []float64
	total    []float64 // predicted total seconds (for solo rescaling)
	feasible []bool
	planned  int

	solo float64 // MaxSpeedup solo baseline

	// bounded marks sessions whose rounds skip sets by the compute bound
	// instead of re-planning the touched slice of the universe.
	bounded bool

	winner   int // universe index of the incumbent, -1 if none
	sched    *Schedule
	schedErr error
	rounds   int

	scr sessionScratch
	kn  stripKernel
}

// DeltaStats describes what one session round did.
type DeltaStats struct {
	// Round is the session-local round number, starting at 1.
	Round int
	// Cold marks the first round, which scores the whole universe.
	Cold bool
	// ChangedHosts counts pool hosts whose inputs changed since the
	// previous round — directly (availability) or through a changed link
	// on one of their frozen routes. On a cold or FullRound it is the
	// pool size.
	ChangedHosts int
	// ChangedLinks counts changed links (batched sources) or changed
	// ordered host pairs (generic sources).
	ChangedLinks int
	// Rescored is how many candidate sets were re-planned; Considered is
	// the frozen universe size.
	Rescored   int
	Considered int
	// Pruned is how many candidate sets a bounded round skipped because
	// their compute bound exceeded the incumbent. On a bounded round
	// Rescored + Pruned = Considered; delta and full rounds prune none.
	Pruned int
	// Carried reports that the incumbent winner survived with its inputs
	// unchanged, so the cached schedule was reused.
	Carried bool
}

// NewReschedSession freezes the agent's scheduling round for an n×n
// problem into an incrementally re-evaluable session. The candidate
// universe is enumerated once, by the agent's own selector against a
// snapshot of the information current now; see the ReschedSession type
// comment for the semantics of that pin.
func (a *Agent) NewReschedSession(n int) (*ReschedSession, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive problem size %d", n)
	}
	pool := a.pool
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: %w: user specification filters out every host", ErrNoFeasibleHosts)
	}
	task := a.tpl.Tasks[0]
	np := len(pool)
	s := &ReschedSession{
		a:       a,
		m:       a.model(n),
		pool:    pool,
		words:   maskWords(np),
		winner:  -1,
		bounded: a.hasComputeBound(),
	}
	s.names = make([]string, np)
	s.poolIdx = make(map[string]int, np)
	s.speed = make([]float64, np)
	s.factor = make([]float64, np)
	s.capPts = make([]float64, np)
	s.memMB = make([]float64, np)
	s.rate = make([]float64, np)
	s.avail = make([]float64, np)
	for i, h := range pool {
		s.names[i] = h.Name
		s.poolIdx[h.Name] = i
		s.speed[i] = h.Speed
		s.factor[i] = task.SpeedFactorOn(h.Arch)
		if task.BytesPerUnit > 0 {
			s.capPts[i] = h.MemoryMB * 1e6 / task.BytesPerUnit
		}
		s.memMB[i] = h.MemoryMB
		s.rate[i] = a.spec.CostRate(h.Name)
	}

	if rb, ok := a.coord.info.(routeBatcher); ok {
		s.rb = rb
		s.rtp = rb.routeTopology()
		s.tidx = make([]int, np)
		for i, h := range pool {
			s.tidx[i] = s.rtp.IndexOf(h)
		}
		s.links = s.rtp.Links()
		s.linkBW = make([]float64, len(s.links))
		s.linkMask = make([]uint64, len(s.links)*s.words)
		for i := 0; i < np; i++ {
			for j := 0; j < np; j++ {
				if i == j {
					continue
				}
				for _, l := range s.route(i, j) {
					li := l.Index()
					m := s.linkMask[li*s.words : (li+1)*s.words]
					maskSet(m, i)
					maskSet(m, j)
				}
			}
		}
		s.pairArrays = np <= selExactPairHosts
	} else {
		// Generic sources have no link substructure to diff; refresh and
		// diff at pair granularity instead.
		s.pairArrays = true
	}
	if s.pairArrays {
		s.pairBW = make([]float64, np*np)
		s.pairLat = make([]float64, np*np)
		s.cost = make([]float64, np*np)
	}

	kind := a.coord.selector.normalized().Kind
	s.siteChain = kind != SelectorExhaustive && np > selExactPairHosts
	if s.siteChain {
		s.sites = newSiteGrouper(pool)
	}

	// Enumerate the universe once, exactly the way a scheduling round
	// does: the real selector over a real snapshot of the current
	// information, honoring MaxResourceSets.
	snap := roundSnapshot(a.coord.info, pool)
	rs := &resourceSelector{tp: a.tp, info: snap}
	sel := newSelector(a.coord.selector, rs, a.spec.MaxResourceSets)
	for set := range sel.SelectSeq(pool) {
		base := len(s.candMask)
		for w := 0; w < s.words; w++ {
			s.candMask = append(s.candMask, 0)
		}
		m := s.candMask[base : base+s.words]
		for _, h := range set {
			maskSet(m, s.poolIdx[h.Name])
		}
		s.candCount++
	}
	if s.candCount == 0 {
		return nil, fmt.Errorf("core: %w: selector produced no candidate sets", ErrNoFeasiblePlan)
	}
	s.score = make([]float64, s.candCount)
	s.total = make([]float64, s.candCount)
	s.feasible = make([]bool, s.candCount)

	s.scr.init(np, s.words)
	s.kn.reserve(np)
	s.scr.effSort.eff = s.scr.eff
	s.scr.effSort.names = s.names
	return s, nil
}

// mask returns candidate c's membership bitmask.
func (s *ReschedSession) mask(c int) []uint64 {
	return s.candMask[c*s.words : (c+1)*s.words]
}

// refresh re-reads every dynamic input into the session arrays and
// diffs against the previous round. It returns whether any availability
// changed and how many links (or pairs) changed; scr.touched holds the
// union touched-host mask afterwards (all hosts when cold).
func (s *ReschedSession) refresh(cold bool) (availChanged bool, changedLinks int) {
	info := s.a.coord.info
	scr := &s.scr
	maskClear(scr.touched)
	for i, name := range s.names {
		v := finiteAvailability(info.Availability(name))
		if cold || v != s.avail[i] {
			s.avail[i] = v
			maskSet(scr.touched, i)
			availChanged = true
		}
	}
	if s.rb != nil {
		maskClear(scr.linkTouched)
		for li, l := range s.links {
			v := s.rb.linkBandwidth(l)
			if cold || v != s.linkBW[li] {
				s.linkBW[li] = v
				changedLinks++
				if !cold {
					maskOr(scr.linkTouched, s.linkMask[li*s.words:(li+1)*s.words])
				}
			}
		}
		if s.pairArrays && changedLinks > 0 {
			// Recompute the pair values whose routes may traverse a changed
			// link: both endpoints lie in the changed links' host mask (a
			// conservative superset — extra pairs recompute to identical
			// values).
			for i := range s.pool {
				if !cold && !maskTest(scr.linkTouched, i) {
					continue
				}
				for j := range s.pool {
					if i == j || (!cold && !maskTest(scr.linkTouched, j)) {
						continue
					}
					s.composePair(i, j)
				}
			}
		}
		maskOr(scr.touched, scr.linkTouched)
	} else {
		np := len(s.pool)
		for i := 0; i < np; i++ {
			for j := 0; j < np; j++ {
				if i == j {
					continue
				}
				bw := info.RouteBandwidth(s.names[i], s.names[j])
				lat := info.RouteLatency(s.names[i], s.names[j])
				at := i*np + j
				if cold || bw != s.pairBW[at] || lat != s.pairLat[at] {
					s.pairBW[at] = bw
					s.pairLat[at] = lat
					cb := bw
					if cb <= 0 {
						cb = 1e-6
					}
					s.cost[at] = lat + 1.0/cb
					changedLinks++
					maskSet(scr.touched, i)
					maskSet(scr.touched, j)
				}
			}
		}
	}
	if cold {
		maskFill(scr.touched, len(s.pool))
	}
	return availChanged, changedLinks
}

// composePair recomputes pair (i,j)'s bandwidth, latency, and chain
// transfer cost from the frozen per-link bandwidths.
func (s *ReschedSession) composePair(i, j int) {
	lat, bw := s.linkRoute(i, j)
	at := i*len(s.pool) + j
	s.pairBW[at] = bw
	s.pairLat[at] = lat
	cb := bw
	if cb <= 0 {
		cb = 1e-6
	}
	s.cost[at] = lat + 1.0/cb
}

// Round advances the session one rescheduling tick: refresh, diff,
// re-plan (bounded, or the touched slice of the universe), reduce, and
// return the winning schedule (cached when the incumbent carries). See
// the type comment for the full contract.
func (s *ReschedSession) Round() (*Schedule, DeltaStats, error) { return s.roundImpl(false) }

// FullRound re-plans the entire frozen universe against the freshly
// refreshed inputs, ignoring the delta and the bound. It exists as the
// parity oracle for Round — both must pick the same schedule bit for
// bit — and as an escape hatch when the caller knows everything moved.
func (s *ReschedSession) FullRound() (*Schedule, DeltaStats, error) { return s.roundImpl(true) }

func (s *ReschedSession) roundImpl(full bool) (*Schedule, DeltaStats, error) {
	cold := s.rounds == 0
	s.rounds++
	availChanged, changedLinks := s.refresh(cold)
	scr := &s.scr

	st := DeltaStats{Round: s.rounds, Cold: cold, ChangedLinks: changedLinks, Considered: s.candCount}
	if full {
		maskFill(scr.touched, len(s.pool))
		availChanged = true
	}
	st.ChangedHosts = maskCount(scr.touched)

	if !maskAny(scr.touched) {
		// Nothing moved: the previous outcome stands as-is.
		st.Carried = true
		s.emit(st)
		return s.sched, st, s.schedErr
	}

	soloChanged := false
	if availChanged {
		for i := range s.pool {
			scr.eff[i] = s.speed[i] * s.avail[i]
		}
		for i := range scr.effOrder {
			scr.effOrder[i] = i
		}
		scr.effSort.idx = scr.effOrder
		sort.Sort(&scr.effSort)
		if s.m.metric == userspec.MaxSpeedup {
			old := s.solo
			s.solo = s.computeSolo()
			soloChanged = cold || s.solo != old
		}
	}

	var bestIdx int
	if s.bounded && !full {
		bestIdx, st.Rescored, st.Pruned = s.boundedScan()
	} else {
		bestIdx, st.Rescored = s.deltaScan(soloChanged)
	}

	prevWinner := s.winner
	if bestIdx < 0 {
		s.winner = -1
		s.sched = nil
		s.schedErr = fmt.Errorf("core: %w: no feasible schedule among %d candidate sets", ErrNoFeasiblePlan, s.candCount)
	} else {
		if s.sched == nil || bestIdx != prevWinner || masksIntersect(s.mask(bestIdx), scr.touched) {
			s.sched = s.materialize(bestIdx)
		} else {
			s.sched.CandidatesPlanned = s.planned
			st.Carried = true
		}
		s.winner = bestIdx
		s.schedErr = nil
	}
	s.emit(st)
	return s.sched, st, s.schedErr
}

// deltaScan re-plans every candidate whose mask meets the touched mask
// (all of them on a cold or full round), moves the cached scores of the
// others onto a new solo baseline, and reduces over the score caches
// with the (score, index) rule. It returns the winner's universe index (-1 when
// nothing is feasible) and how many sets it re-planned.
func (s *ReschedSession) deltaScan(soloChanged bool) (bestIdx, rescored int) {
	for c := 0; c < s.candCount; c++ {
		if masksIntersect(s.mask(c), s.scr.touched) {
			rescored++
			s.solve(c)
		} else if soloChanged && s.feasible[c] {
			// Untouched plan, new solo baseline: the schedule and total are
			// cached; only the speedup ratio moves.
			if s.total[c] <= 0 {
				s.score[c] = math.Inf(1)
			} else {
				s.score[c] = -s.solo / s.total[c]
			}
		}
	}

	bestIdx, best := -1, math.Inf(1)
	planned := 0
	for c := 0; c < s.candCount; c++ {
		if !s.feasible[c] {
			continue
		}
		planned++
		if s.score[c] < best {
			bestIdx, best = c, s.score[c]
		}
	}
	s.planned = planned
	return bestIdx, rescored
}

// boundedScan plans a bounded round. The previous winner, re-priced,
// seeds the incumbent (+Inf on the cold round); the walk then skips
// every set whose compute bound strictly exceeds the incumbent, plans
// the rest, and reduces with the (score, index) rule as it goes. A
// skipped set's score is at least its bound, so it scores above the
// final best and cannot change the winner or its tie-break. Pruned sets
// are marked infeasible, so the score caches hold this round's planned
// sets only. It returns the winner's universe index (-1 when nothing
// is feasible), and how many sets it re-planned and skipped.
func (s *ReschedSession) boundedScan() (bestIdx, rescored, pruned int) {
	s.fillPointRate()
	inc := math.Inf(1)
	prev := s.winner
	if prev >= 0 {
		s.solve(prev)
		rescored++
		inc = s.score[prev]
	}
	bestIdx, best := -1, math.Inf(1)
	planned := 0
	for c := 0; c < s.candCount; c++ {
		if c != prev {
			if s.bound(c) > inc {
				s.feasible[c] = false
				pruned++
				continue
			}
			s.solve(c)
			rescored++
		}
		if !s.feasible[c] {
			continue
		}
		planned++
		sc := s.score[c]
		if sc < best {
			bestIdx, best = c, sc
		}
		inc = min(inc, sc)
	}
	s.planned = planned
	return bestIdx, rescored, pruned
}

// fillPointRate writes each pool host's point rate — the reciprocal of
// secondsPerPoint's coefficient, 0 for a host with no deliverable speed
// — from the refreshed availabilities into scr.pointRate.
func (s *ReschedSession) fillPointRate() {
	for i := range s.pool {
		speed := s.speed[i] * floorAvailability(s.avail[i]) * s.factor[i]
		if speed <= 0 {
			s.scr.pointRate[i] = 0
			continue
		}
		s.scr.pointRate[i] = 1 / (s.m.flopPerUnit / 1e6 / speed)
	}
}

// bound is candidate c's compute bound over scr.pointRate, the session
// twin of computeLowerBound.
func (s *ReschedSession) bound(c int) float64 {
	rate := 0.0
	for w, word := range s.mask(c) {
		for word != 0 {
			rate += s.scr.pointRate[w*64+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	return rateBound(rate, s.m.n, s.m.iterations)
}

// solve re-plans universe candidate c into the score caches.
func (s *ReschedSession) solve(c int) {
	k := s.chainFor(s.mask(c))
	iterT, ok := s.solveChain(k)
	if !ok {
		s.feasible[c] = false
		s.score[c] = math.Inf(1)
		s.total[c] = 0
		return
	}
	s.feasible[c] = true
	s.total[c] = iterT * float64(s.m.iterations)
	s.score[c] = s.kn.score(&s.m, k, iterT, s.solo)
}

// computeSolo mirrors the agent's MaxSpeedup baseline: the best
// predicted single-host total over the frozen pool, in pool order.
func (s *ReschedSession) computeSolo() float64 {
	solo := math.Inf(1)
	for i := range s.pool {
		s.scr.chain[0] = i
		iterT, ok := s.solveChain(1)
		if !ok {
			continue
		}
		if t := iterT * float64(s.m.iterations); t < solo {
			solo = t
		}
	}
	return solo
}

// materialize rebuilds the winner's *Schedule exactly as the agent's
// pickBest does: re-solve the candidate into the kernel and build the
// schedule from it. This is the only allocating step of a non-carried
// round.
func (s *ReschedSession) materialize(c int) *Schedule {
	k := s.chainFor(s.mask(c))
	iterT, _ := s.solveChain(k)
	hosts := make([]string, k)
	for i := 0; i < k; i++ {
		hosts[i] = s.names[s.scr.chain[i]]
	}
	sched := s.kn.schedule(&s.m, hosts, iterT)
	sched.InfoSource = s.a.coord.Information().Source()
	sched.CandidatesConsidered = s.candCount
	sched.CandidatesPlanned = s.planned
	return sched
}

// emit publishes the round's delta observability: the re-score ratio
// gauge, the re-score and prune counters, and an EvDeltaRound trace
// event.
func (s *ReschedSession) emit(st DeltaStats) {
	if met := s.a.coord.met; met != nil {
		met.deltaRatio.Set(float64(st.Rescored) / float64(s.candCount))
		met.rescored.Add(uint64(st.Rescored))
		met.pruned.Add(uint64(st.Pruned))
	}
	if tr := s.a.coord.tracer; tr != nil {
		e := obs.Event{Type: obs.EvDeltaRound, Round: uint64(st.Round),
			Changed: st.ChangedHosts, Rescored: st.Rescored, Pruned: st.Pruned,
			Carried: st.Carried, Considered: st.Considered}
		if s.sched != nil {
			e.Hosts = s.sched.Hosts
			e.Predicted = s.sched.PredictedTotal
			e.Score = s.score[s.winner]
			e.Planned = s.planned
		} else {
			e.Reason = "no-feasible-plan"
		}
		tr.Emit(e)
	}
}

// Stats returns the bookkeeping of the most recent round without
// advancing the session.
func (s *ReschedSession) Stats() (rounds, considered int) { return s.rounds, s.candCount }

// Pool returns the frozen pool's host names in userspec filter order —
// the universe every candidate bitmask indexes into. The slice is owned
// by the session; callers must not mutate it.
func (s *ReschedSession) Pool() []string { return s.names }
