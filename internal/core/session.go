package core

import (
	"fmt"
	"math"

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
// is every non-empty subset. A session is three things:
//
//   - its information view, an InfoSnapshot over the pool whose
//     positions are pool indices, refreshed in place every round, and
//     the pool columns (P_i, ρ_i, r_i·P_i) derived from it. Every static
//     per-host coefficient comes from the agent's hostPool;
//   - the carry: a round where nothing in the view changed returns the
//     previous outcome in O(hosts + links) comparisons and zero
//     allocations (gated by TestSessionSteadyStateAllocFree);
//   - the bounded mask walk every winner-only Agent round takes
//     (selModel.walk), over the pool model built at construction. The
//     model's desirability ranking and enumeration key are frozen
//     then, so a set is one ranking-bit mask for the session's life;
//     its eff-seed order and pair costs are refreshed with the view,
//     so every chain is laid out as a fresh round lays it out.
//
// A round that is not carried seeds the walk with the previous winner,
// re-priced; on the cold round, or when the previous winner is no
// longer feasible, with the best desirability prefix, as Agent rounds
// do. It then plans the kept sets in enumeration order, skipping, as
// the Coordinator does, every set whose bound exceeds the best score
// planned so far, reduces with the (score, index) rule, and
// re-materializes the winning *Schedule. Below a spill factor of 1,
// where the metric bounds are unsound (Agent.hasComputeBound), and in
// FullRound, the seed is +Inf and nothing is skipped. The solver never
// allocates: chains, cost rows, balance areas, row counts and the
// walk's per-mask terms live in session-owned scratch.
//
// Equivalence: the first Round() picks the schedule Agent.Schedule(n)
// returns at the same instant, planned count included, and every later
// Round() the one FullRound() picks (the parity suite in
// session_test.go pins both, DeepEqual on schedules and float bits on
// scores). A bounded Round() differs from FullRound() only in
// CandidatesPlanned: a skipped set scores above the final best, so it
// can change neither the winner nor its tie-break, but it is not
// counted as planned. Only exact score ties are broken in the frozen
// enumeration order.
//
// The session never modifies a *Schedule after returning it: a
// quiescent round returns the same one again, and any other round
// builds a new one. A session is not safe for concurrent use.
type ReschedSession struct {
	a *Agent

	// view is the session's information over its pool, refreshed in
	// place every round; its position i is pool index i. rp prices
	// chains against the pool columns over it: rp.cols.avail aliases
	// the view's availability column, and rp.cols routes through
	// view.routeAt.
	view *InfoSnapshot
	rp   roundPricer

	// sel is the session's pool model, as buildSelModel built it at
	// construction: rank and rankPos stay frozen, eff and the eff-seed
	// order are refreshed with availability, and the pair-cost matrix,
	// the session's transfer-cost store, is re-priced from the view when
	// a route changes. agg is the frozen enumeration key of every
	// ranking-bit mask, and walk the bounded walk's scratch.
	sel  *selModel
	agg  []float64
	walk maskWalk

	// bounded marks sessions whose rounds skip sets by their metric
	// bound (Agent.hasComputeBound).
	bounded bool

	win      int     // ranking-bit mask of the winner, 0 if none
	winScore float64 // its exact score
	planned  int
	sched    *Schedule
	schedErr error
	rounds   int

	kn stripKernel
}

// DeltaStats describes what one session round did.
type DeltaStats struct {
	// Round is the session-local round number, starting at 1.
	Round int
	// Cold marks the first round, whose walk is seeded with the best
	// desirability prefix.
	Cold bool
	// ChangedHosts counts pool hosts whose availability changed since
	// the previous round. On a cold or FullRound it is the pool size.
	ChangedHosts int
	// ChangedLinks counts changed links on the pool's routes (batched
	// sources: a change on any other link leaves the round quiescent) or
	// changed ordered host pairs (generic sources).
	ChangedLinks int
	// Rescored is how many candidate sets were re-planned; Considered is
	// the frozen universe size. Pricing the seed is not counted.
	Rescored   int
	Considered int
	// Pruned is how many candidate sets a bounded round skipped because
	// their metric bound exceeded the seed or the best score planned
	// before them. On a bounded round Rescored + Pruned = Considered;
	// FullRound and unbounded rounds prune none.
	Pruned int
	// Carried marks a quiescent round: no input changed, so the previous
	// outcome was returned as-is.
	Carried bool
}

// NewReschedSession freezes the agent's scheduling round for an n×n
// problem into an incrementally re-evaluable session. The pool model,
// and with it the order the agent's exhaustive selector enumerates the
// universe in, is built once against a snapshot of the information
// current now. An agent whose universe depends on information (a
// heuristic selector, a pool of more than maxExhaustiveHosts hosts, or
// a MaxResourceSets cap below 2^pool − 1) gets ErrSessionUniverse: a
// frozen copy of its sets would go stale as forecasts drift, so it
// re-schedules with fresh rounds instead.
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
		view:    roundSnapshot(a.coord.info, pool),
		rp:      roundPricer{m: a.model(n), hp: a.hp, solo: math.Inf(1)},
		walk:    newMaskWalk(len(pool)),
		bounded: a.hasComputeBound(),
	}
	s.rp.cols = newPoolCols(a.hp, s.view.routeAt)
	s.rp.cols.avail = s.view.avail
	s.sel = buildSelModel(s.rp.cols, true)
	s.agg = s.sel.desSums()
	s.kn.reserve(len(pool))
	return s, nil
}

// frozenUniverse reports whether the agent's candidate universe cannot
// change with information: the exhaustive selector over at most
// maxExhaustiveHosts pool hosts, with no MaxResourceSets cap below the
// 2^pool − 1 non-empty subsets. Only such a universe backs a
// ReschedSession, and a winner-only round over it takes the bounded
// walk (boundedSubsets).
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

	st := DeltaStats{Round: s.rounds, Cold: cold, ChangedHosts: changedHosts, ChangedLinks: changedLinks, Considered: len(s.agg) - 1}
	if full {
		st.ChangedHosts = len(s.rp.cols.avail)
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
		s.sel.setEff(s.rp.cols)
		s.rp.cols.fill(s.rp.m.flopPerUnit)
		if s.rp.m.metric == userspec.MaxSpeedup {
			s.rp.solo = s.rp.cols.solo(&s.rp.m, &s.kn)
		}
	}

	st.Rescored, st.Pruned = s.plan(s.bounded && !full)
	if s.win == 0 {
		s.sched = nil
		s.schedErr = fmt.Errorf("core: %w: no feasible schedule among %d candidate sets", ErrNoFeasiblePlan, st.Considered)
	} else {
		s.sched = s.materialize()
		s.schedErr = nil
	}
	s.emit(st)
	return s.sched, st, s.schedErr
}

// plan runs the round's walk and reduces its kept sets with the
// (score, index) rule as it goes, into the winner fields. It returns
// how many sets it re-planned and skipped. Under prune the walk is
// seeded (seed) and, as the Coordinator's round does, a kept set whose
// bound exceeds the best score planned before it is skipped unplanned;
// otherwise the seed is +Inf and every set is planned.
func (s *ReschedSession) plan(prune bool) (rescored, pruned int) {
	seed := math.Inf(1)
	if prune {
		seed = s.seed()
	}
	skip := s.sel.walk(&s.walk, &s.rp, seed, s.agg)
	s.win, s.winScore, s.planned = 0, math.Inf(1), 0
	for _, mask := range skip.kept {
		if prune && s.walk.bound(&s.rp, mask) > s.winScore {
			pruned++
			continue
		}
		rescored++
		if _, sc, ok := s.rp.priceChain(&s.kn, s.sel.orderMask(mask)); ok {
			s.planned++
			if sc < s.winScore {
				s.win, s.winScore = mask, sc
			}
		}
	}
	return rescored, pruned + skip.Count
}

// seed is a bounded round's walk seed, the exact score of a set in the
// universe: the previous winner's, re-priced, or, on the cold round or
// when the previous winner is no longer feasible, the best desirability
// prefix's (selModel.prefixSeed).
func (s *ReschedSession) seed() float64 {
	if s.win != 0 {
		if _, sc, ok := s.rp.priceChain(&s.kn, s.sel.orderMask(s.win)); ok {
			return sc
		}
	}
	return s.sel.prefixSeed(&s.rp, &s.kn)
}

// materialize rebuilds the winner's *Schedule exactly as the agent's
// pickBest does (roundPricer.schedule). This is the only allocating
// step of a non-carried round.
func (s *ReschedSession) materialize() *Schedule {
	sched := s.rp.schedule(&s.kn, s.sel.orderMask(s.win))
	sched.InfoSource = s.a.coord.Information().Source()
	sched.CandidatesConsidered = len(s.agg) - 1
	sched.CandidatesPlanned = s.planned
	return sched
}

// emit publishes the round's delta observability: the re-score ratio
// gauge, the re-score and prune counters, and an EvDeltaRound trace
// event.
func (s *ReschedSession) emit(st DeltaStats) {
	if met := s.a.coord.met; met != nil {
		met.deltaRatio.Set(float64(st.Rescored) / float64(st.Considered))
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
			e.Score = s.winScore
			e.Planned = s.planned
		} else {
			e.Reason = "no-feasible-plan"
		}
		tr.Emit(e)
	}
}

// Stats returns the bookkeeping of the most recent round without
// advancing the session.
func (s *ReschedSession) Stats() (rounds, considered int) { return s.rounds, len(s.agg) - 1 }

// Pool returns the frozen pool's host names in userspec filter order —
// the universe every candidate bitmask indexes into — as a fresh slice.
func (s *ReschedSession) Pool() []string { return hostNames(s.a.hp.hosts) }
