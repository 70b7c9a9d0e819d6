package core

import (
	"fmt"
	"math"
	"math/bits"

	"apples/internal/obs"
	"apples/internal/userspec"
)

// ReschedSession is the delta-aware, allocation-free rescheduling loop:
// the same decision Agent.Schedule makes, restructured for being asked
// again and again at kHz rates as forecasts drift.
//
// A session exists only over a candidate universe that cannot change
// with information (Agent.frozenUniverse): the exhaustive selector over
// a pool of at most maxExhaustiveHosts hosts, uncapped, so the universe
// is every non-empty subset. At construction the session freezes it —
// the US-filtered pool in filter order and the sets in the order the
// agent's Resource Selector enumerates them against the information
// current then — and represents each set as one uint64 bitmask over the
// frozen pool ordering. Every static per-host coefficient comes from the
// agent's hostPool, resolved once when the agent was built; the session
// owns only its information view, an InfoSnapshot over the pool whose
// positions are pool indices, and the pool columns (poolCols) derived
// from it.
//
// Each Round() then:
//
//  1. refreshes the view in place (InfoSnapshot.refresh: per-host
//     availability; the bandwidth of the links the pool's routes cross
//     for batched sources, per-pair values otherwise) and counts what
//     changed. A round where nothing changed ends here and carries the
//     previous outcome; one where availability changed refills the pool
//     columns (P_i, ρ_i, r_i·P_i), and one where a route changed
//     re-prices the chain transfer costs;
//  2. re-plans the universe in one scan. With a spill factor ≥ 1, where
//     the metric bounds are sound (Agent.hasComputeBound), the scan is
//     bounded: it re-prices the previous winner as the incumbent, then
//     walks the universe in enumeration order, skipping every set whose
//     bound under the user's metric (stripModel.bound, over the pool
//     columns) exceeds the incumbent and
//     planning the rest;
//  3. reduces with the Coordinator's (score, index) rule over the frozen
//     enumeration order and re-materializes the winning *Schedule.
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
// tie-break, but it is not counted as planned. Every chain is re-laid
// out from the current availability, so a later Round() plans the sets
// a fresh round would; only exact score ties are broken in the frozen
// enumeration order.
//
// The session never modifies a *Schedule after returning it: a
// quiescent round returns the same one again, and any other round
// builds a new one. A session is not safe for concurrent use.
type ReschedSession struct {
	a *Agent
	m stripModel

	// view is the session's information over its pool, refreshed in
	// place every round; its position i is pool index i. cols.avail
	// aliases the view's availability column, and cols routes through
	// view.routeAt.
	view *InfoSnapshot
	cols *poolCols

	// sel is the session's exact pool model: eff and the eff-seed order,
	// refreshed with availability, and the chain layout. Its pair-cost
	// matrix is the session's transfer-cost store, re-priced from the
	// view when a route changes.
	sel *selModel

	// Frozen candidate universe: one membership mask per set, in the
	// selector's enumeration order, plus the latest round's
	// per-candidate scores (a pruned set reads infeasible).
	candMask []uint64

	score    []float64
	feasible []bool
	planned  int

	solo float64 // MaxSpeedup solo baseline

	// bounded marks sessions whose rounds skip sets by their metric
	// bound (Agent.hasComputeBound).
	bounded bool

	winner   int // universe index of the incumbent, -1 if none
	sched    *Schedule
	schedErr error
	rounds   int

	kn stripKernel
}

// DeltaStats describes what one session round did.
type DeltaStats struct {
	// Round is the session-local round number, starting at 1.
	Round int
	// Cold marks the first round, which scores the whole universe.
	Cold bool
	// ChangedHosts counts pool hosts whose availability changed since
	// the previous round. On a cold or FullRound it is the pool size.
	ChangedHosts int
	// ChangedLinks counts changed links on the pool's routes (batched
	// sources: a change on any other link leaves the round quiescent) or
	// changed ordered host pairs (generic sources).
	ChangedLinks int
	// Rescored is how many candidate sets were re-planned; Considered is
	// the frozen universe size.
	Rescored   int
	Considered int
	// Pruned is how many candidate sets a bounded round skipped because
	// their metric bound exceeded the incumbent. On a bounded round
	// Rescored + Pruned = Considered; FullRound and unbounded rounds
	// prune none.
	Pruned int
	// Carried marks a quiescent round: no input changed, so the previous
	// outcome was returned as-is.
	Carried bool
}

// NewReschedSession freezes the agent's scheduling round for an n×n
// problem into an incrementally re-evaluable session. The candidate
// universe is enumerated once, by the agent's own selector against a
// snapshot of the information current now. An agent whose universe
// depends on information (a heuristic selector, a pool of more than
// maxExhaustiveHosts hosts, or a MaxResourceSets cap below 2^pool − 1)
// gets ErrSessionUniverse: a frozen copy of its sets would go stale as
// forecasts drift, so it re-schedules with fresh rounds instead.
func (a *Agent) NewReschedSession(n int) (*ReschedSession, error) {
	if err := checkProblemSize(n); err != nil {
		return nil, err
	}
	pool := a.hp.hosts
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: %w: user specification filters out every host", ErrNoFeasibleHosts)
	}
	if !a.frozenUniverse() {
		return nil, fmt.Errorf("core: %w: %s selector, %d hosts, MaxResourceSets %d",
			ErrSessionUniverse, a.coord.selector.normalized().Kind, len(pool), a.spec.MaxResourceSets)
	}
	s := &ReschedSession{
		a:       a,
		m:       a.model(n),
		view:    roundSnapshot(a.coord.info, pool),
		sel:     newSelModel(a.hp, true),
		winner:  -1,
		bounded: a.hasComputeBound(),
	}
	s.cols = newPoolCols(a.hp, s.view.routeAt)
	s.cols.avail = s.view.avail

	// Enumerate the universe once, exactly the way a scheduling round
	// does: every subset, in the exhaustive selector's order over the
	// view of the current information.
	rs := &resourceSelector{cols: viewCols(a.hp, s.view, s.m.flopPerUnit)}
	sets := rs.candidates(0)
	s.candMask = make([]uint64, len(sets))
	for c, set := range sets {
		for _, h := range set {
			s.candMask[c] |= 1 << a.hp.indexOf(h)
		}
	}
	s.score = make([]float64, len(sets))
	s.feasible = make([]bool, len(sets))

	s.kn.reserve(len(pool))
	return s, nil
}

// frozenUniverse reports whether the agent's candidate universe cannot
// change with information: the exhaustive selector over at most
// maxExhaustiveHosts pool hosts, with no MaxResourceSets cap below the
// 2^pool − 1 non-empty subsets. Only such a universe backs a
// ReschedSession.
func (a *Agent) frozenUniverse() bool {
	np, maxSets := len(a.hp.hosts), a.spec.MaxResourceSets
	return a.coord.selector.normalized().Kind == SelectorExhaustive && np <= maxExhaustiveHosts &&
		(maxSets <= 0 || maxSets >= 1<<np-1)
}

// Round advances the session one rescheduling tick: refresh, re-plan
// (bounded by the metric's bound unless the agent's spill factor is
// below 1), reduce, and return the winning schedule (the cached one on
// a quiescent round). See the type comment for the full contract.
func (s *ReschedSession) Round() (*Schedule, DeltaStats, error) { return s.roundImpl(false) }

// FullRound re-plans the entire frozen universe against the freshly
// refreshed inputs, without a bound, even when nothing changed. It is
// the parity oracle for Round — both must pick the same schedule bit
// for bit.
func (s *ReschedSession) FullRound() (*Schedule, DeltaStats, error) { return s.roundImpl(true) }

func (s *ReschedSession) roundImpl(full bool) (*Schedule, DeltaStats, error) {
	cold := s.rounds == 0
	s.rounds++
	changedHosts, changedLinks := s.view.refresh(cold)

	st := DeltaStats{Round: s.rounds, Cold: cold, ChangedHosts: changedHosts, ChangedLinks: changedLinks, Considered: len(s.candMask)}
	if full {
		st.ChangedHosts = len(s.cols.avail)
	} else if changedHosts == 0 && changedLinks == 0 {
		// Nothing moved: the previous outcome stands as-is.
		st.Carried = true
		s.emit(st)
		return s.sched, st, s.schedErr
	}

	if cold || changedLinks > 0 {
		for i, row := range s.sel.cost {
			for j := range row {
				if i != j {
					row[j] = transferCost(s.view.routeAt(i, j))
				}
			}
		}
	}

	if full || changedHosts > 0 {
		s.sel.setEff(s.cols.avail)
		s.cols.fill(s.m.flopPerUnit)
		if s.m.metric == userspec.MaxSpeedup {
			s.solo = s.cols.solo(&s.m, &s.kn)
		}
	}

	var bestIdx int
	bestIdx, st.Rescored, st.Pruned = s.scan(s.bounded && !full)
	if bestIdx < 0 {
		s.winner = -1
		s.sched = nil
		s.schedErr = fmt.Errorf("core: %w: no feasible schedule among %d candidate sets", ErrNoFeasiblePlan, len(s.candMask))
	} else {
		s.winner = bestIdx
		s.sched = s.materialize(bestIdx)
		s.schedErr = nil
	}
	s.emit(st)
	return s.sched, st, s.schedErr
}

// scan re-plans the universe and reduces with the (score, index) rule
// as it goes. It returns the winner's universe index (-1 when nothing
// is feasible), and how many sets it re-planned and skipped.
//
// Under prune, the previous winner, re-priced, seeds the incumbent
// (+Inf on the cold round), and the walk skips every set whose metric
// bound strictly exceeds the incumbent. A skipped set's score is at
// least its bound, so it scores above the final best and cannot change
// the winner or its tie-break. Pruned sets are marked infeasible, so
// the score caches hold this round's planned sets only.
func (s *ReschedSession) scan(prune bool) (bestIdx, rescored, pruned int) {
	inc, prev := math.Inf(1), -1
	if prune {
		if prev = s.winner; prev >= 0 {
			s.solve(prev)
			rescored++
			inc = s.score[prev]
		}
	}
	bestIdx, best := -1, math.Inf(1)
	planned := 0
	for c := range s.candMask {
		if c != prev {
			if prune && s.bound(c) > inc {
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

// bound is candidate c's metric bound over the pool columns, the session
// twin of Agent.round's RoundPlan.Bound: stripModel.bound, fed the aggregate
// its metric reads. Min-time sets, the common case, take its rateBound
// case directly, which inlines.
func (s *ReschedSession) bound(c int) float64 {
	switch s.m.metric {
	case userspec.MinExecutionTime:
		return rateBound(s.candRate(c), s.m.n, s.m.iterations)
	case userspec.MinCost:
		return s.m.bound(0, s.candLeastCost(c), s.solo)
	}
	return s.m.bound(s.candRate(c), 0, s.solo)
}

// candRate is candidate c's aggregate point rate Σρ_i, summed in pool
// index order.
func (s *ReschedSession) candRate(c int) float64 {
	rate := 0.0
	for m := s.candMask[c]; m != 0; m &= m - 1 {
		rate += s.cols.rho[bits.TrailingZeros64(m)]
	}
	return rate
}

// candLeastCost is the least r_i·P_i over candidate c's members.
func (s *ReschedSession) candLeastCost(c int) float64 {
	least := math.Inf(1)
	for m := s.candMask[c]; m != 0; m &= m - 1 {
		least = min(least, s.cols.costPP[bits.TrailingZeros64(m)])
	}
	return least
}

// solve re-plans universe candidate c into the score caches.
func (s *ReschedSession) solve(c int) {
	k := s.chainFor(s.candMask[c])
	iterT, ok := s.solveChain(k)
	if !ok {
		s.feasible[c] = false
		s.score[c] = math.Inf(1)
		return
	}
	s.feasible[c] = true
	s.score[c] = s.kn.score(&s.m, k, iterT, s.solo)
}

// materialize rebuilds the winner's *Schedule exactly as the agent's
// pickBest does: re-solve the candidate into the kernel and build the
// schedule from it. This is the only allocating step of a non-carried
// round.
func (s *ReschedSession) materialize(c int) *Schedule {
	k := s.chainFor(s.candMask[c])
	iterT, _ := s.solveChain(k)
	hosts := make([]string, k)
	for i := 0; i < k; i++ {
		hosts[i] = s.a.hp.hosts[s.kn.chain[i]].Name
	}
	sched := s.kn.schedule(&s.m, hosts, iterT)
	sched.InfoSource = s.a.coord.Information().Source()
	sched.CandidatesConsidered = len(s.candMask)
	sched.CandidatesPlanned = s.planned
	return sched
}

// emit publishes the round's delta observability: the re-score ratio
// gauge, the re-score and prune counters, and an EvDeltaRound trace
// event.
func (s *ReschedSession) emit(st DeltaStats) {
	if met := s.a.coord.met; met != nil {
		met.deltaRatio.Set(float64(st.Rescored) / float64(len(s.candMask)))
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
func (s *ReschedSession) Stats() (rounds, considered int) { return s.rounds, len(s.candMask) }

// Pool returns the frozen pool's host names in userspec filter order —
// the universe every candidate bitmask indexes into — as a fresh slice.
func (s *ReschedSession) Pool() []string { return hostNames(s.a.hp.hosts) }
