package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/partition"
	"apples/internal/userspec"
)

// Schedule is the Coordinator's chosen schedule for one run, plus the
// bookkeeping the Actuator and the experiments need.
type Schedule struct {
	// Placement is the data decomposition to actuate.
	Placement *partition.Placement
	// PredictedIterTime and PredictedTotal are the Performance Estimator's
	// expectations for one sweep and the full run.
	PredictedIterTime float64
	PredictedTotal    float64
	// Hosts lists the selected resources by placement share, larger
	// first; hosts with equal shares keep their strip-chain order, so a
	// selected host the balancer gave 0 rows comes last. Placement lists
	// the worked hosts in band (strip-chain) order.
	Hosts []string
	// CandidatesConsidered counts resource sets evaluated, and
	// CandidatesPlanned those that produced a feasible plan. Schedule
	// and Run skip sets whose bound under the user's metric cannot beat
	// the best score seen, so their CandidatesPlanned is
	// lower than ScheduleExplained's (and timing-dependent on pools
	// above 64 hosts, which fan out to workers); the selected schedule
	// itself never changes.
	CandidatesConsidered int
	CandidatesPlanned    int
	// InfoSource names the information pool variant used.
	InfoSource string
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule{hosts=%s predIter=%.4fs predTotal=%.2fs info=%s}",
		strings.Join(s.Hosts, ","), s.PredictedIterTime, s.PredictedTotal, s.InfoSource)
}

// Actuator implements a schedule on the target resource management
// system and reports the measured execution time. In this repository the
// target is the simulated metacomputer (the jacobi package provides the
// implementation); in the paper it was KeLP.
type Actuator interface {
	Actuate(p *partition.Placement) (measuredSeconds float64, err error)
}

// ActuatorFunc adapts a function to the Actuator interface.
type ActuatorFunc func(p *partition.Placement) (float64, error)

// Actuate implements Actuator.
func (f ActuatorFunc) Actuate(p *partition.Placement) (float64, error) { return f(p) }

// Agent is an AppLeS: an application-level scheduling agent for one
// application instance (here, the Jacobi2D blueprint of Section 5). It is
// a thin instantiation of the shared Coordinator round: its Resource
// Selector enumerates strip-chain resource sets and the strip kernel
// (sessionsolver.go) balances and prices each one.
type Agent struct {
	tp    *grid.Topology
	tpl   *hat.Template
	spec  *userspec.Spec
	coord Coordinator

	// hp is spec.Filter(tp.Hosts()) with its static coefficients,
	// set up once: the host set is fixed after Finalize. Read-only;
	// every round and session shares it.
	hp *hostPool

	// spillFactor mirrors the execution substrate's out-of-memory penalty
	// so spills are priced honestly (default 25, matching jacobi.Config;
	// see WithSpillFactor).
	spillFactor float64
}

// NewAgent assembles an agent from its information pool: the application
// template (HAT), the user specification (US), and a dynamic information
// source (NWS, oracle, or static). Options tune the evaluation engine;
// every agent evaluates candidates against a per-round information
// snapshot — inline on pools up to 64 hosts, over GOMAXPROCS workers on
// larger ones — and makes exactly the decision the sequential path would.
// The Spec's host filter (Accessible, Excluded, PreferredSites,
// MinHostMemoryMB, RequiredFeatures) and its cost rates
// (CostPerCPUHour) are read here, once: changing those fields
// afterwards changes neither the agent's pool nor its prices.
func NewAgent(tp *grid.Topology, tpl *hat.Template, spec *userspec.Spec, info Information, opts ...AgentOption) (*Agent, error) {
	if err := tpl.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrBadTemplate, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tpl.Paradigm != hat.DataParallel || len(tpl.Tasks) != 1 {
		return nil, fmt.Errorf("core: %w: the Jacobi blueprint schedules single-task data-parallel templates, got %s with %d tasks",
			ErrBadTemplate, tpl.Paradigm, len(tpl.Tasks))
	}
	if spec.Decomposition != "" && spec.Decomposition != "strip" {
		return nil, fmt.Errorf("core: planner supports strip decompositions, user requested %q", spec.Decomposition)
	}
	cfg := newCoordConfig(info)
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if err := cfg.selector.validate(); err != nil {
		return nil, err
	}
	a := &Agent{tp: tp, tpl: tpl, spec: spec, coord: cfg.Coordinator, spillFactor: 25,
		hp: newHostPool(tp, &tpl.Tasks[0], spec, spec.Filter(tp.Hosts()))}
	if cfg.spillFactor > 0 {
		a.spillFactor = cfg.spillFactor
	}
	return a, nil
}

// clone copies the agent with its evaluation configuration, for derived
// agents (e.g. the dedicated-offer agent in WaitOrRun).
func (a *Agent) clone() *Agent {
	c := *a
	return &c
}

// Candidate is one evaluated resource set (or, for the pipeline
// blueprint, one task mapping), exposed by ScheduleExplained and
// Candidates so users can see what the Coordinator weighed.
type Candidate struct {
	Hosts             []string
	PredictedIterTime float64
	PredictedTotal    float64
	// Score is the user-metric objective (lower is better).
	Score float64
	// Placement is the planned decomposition for this set (nil for
	// pipeline candidates).
	Placement *partition.Placement
	// Unit is the pipeline transfer unit for pipeline candidates; 0 for
	// data-parallel candidates and single-site mappings.
	Unit int

	// chain is the evaluated set, positions in its round's pool, kept in
	// place of Hosts while the round runs: only the winner, returned
	// candidates and trace events get names, built from it (name). A
	// candidate returned to a caller never carries it.
	chain []int
}

// name gives c its host names from its chain over pool, the round's
// pool, and drops the chain: the candidate as a caller sees it.
func (c *Candidate) name(pool []*grid.Host) {
	c.Hosts, c.chain = chainNames(pool, c.chain), nil
}

// rankCandidates returns a copy of cands sorted ascending by score (ties
// keep evaluation order) and truncated to k when k > 0.
func rankCandidates(cands []Candidate, k int) []Candidate {
	ranked := append([]Candidate(nil), cands...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score < ranked[j].Score })
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// roundPricer is the Jacobi blueprint's Planner + Estimator for one
// scheduling round: it feeds each candidate chain from the round's pool
// columns into a private strip kernel and prices it. Its fields are
// fixed once the round binds, so concurrent workers share it; after the
// round it re-solves the winner (and any requested top-k) into
// placements against the same columns.
type roundPricer struct {
	m    stripModel
	hp   *hostPool
	cols *poolCols // the round's columns, resolved by bind
	solo float64   // MaxSpeedup baseline: best single-host total
}

func (a *Agent) newPricer(n int) *roundPricer {
	return &roundPricer{m: a.model(n), hp: a.hp}
}

// bind resolves the round's pool columns from its information view,
// and under MaxSpeedup the solo baseline.
func (rp *roundPricer) bind(view *InfoSnapshot) {
	rp.cols = viewCols(rp.hp, view, rp.m.flopPerUnit)
	rp.solo = math.Inf(1)
	if rp.m.metric == userspec.MaxSpeedup {
		kn := kernelPool.Get().(*stripKernel)
		rp.solo = rp.cols.solo(&rp.m, kn)
		kernelPool.Put(kn)
	}
}

// solveChain feeds and solves chain, pool indices in chain order, in
// kn: its iteration time, ok=false when it is infeasible. kn keeps the
// solved rows.
func (rp *roundPricer) solveChain(kn *stripKernel, chain []int) (float64, bool) {
	kn.reserve(len(chain))
	copy(kn.chain, chain)
	if kn.feed(&rp.m, rp.cols, len(chain)) >= 0 {
		return 0, false
	}
	return kn.solve(&rp.m, len(chain))
}

// priceChain is solveChain plus chain's exact score.
func (rp *roundPricer) priceChain(kn *stripKernel, chain []int) (iterT, score float64, ok bool) {
	if iterT, ok = rp.solveChain(kn, chain); ok {
		score = kn.score(&rp.m, len(chain), iterT, rp.solo)
	}
	return iterT, score, ok
}

// Evaluate is the round plan's Evaluate. The candidate carries no
// placement: only the winner and a requested top-k are ever built.
func (rp *roundPricer) Evaluate(set []int) (Candidate, bool) {
	kn := kernelPool.Get().(*stripKernel)
	iterT, score, ok := rp.priceChain(kn, set)
	kernelPool.Put(kn)
	if !ok {
		return Candidate{}, false
	}
	return Candidate{
		PredictedIterTime: iterT,
		PredictedTotal:    iterT * float64(rp.m.iterations),
		Score:             score,
	}, true
}

// bound is stripModel.bound over the round's MaxSpeedup baseline.
func (rp *roundPricer) bound(rate, leastCost float64) float64 {
	return rp.m.bound(rate, leastCost, rp.solo)
}

// boundSet is the round plan's Bound: bound over set's aggregates.
func (rp *roundPricer) boundSet(set []int) float64 {
	return rp.bound(rp.cols.boundTerms(set))
}

// schedule re-solves chain, the round's winning set, into kn and builds
// its *Schedule: the winner of an Agent round and of a ReschedSession
// round alike. The caller fills the source and candidate counters.
func (rp *roundPricer) schedule(kn *stripKernel, chain []int) *Schedule {
	iterT, _ := rp.solveChain(kn, chain)
	return kn.schedule(&rp.m, chainNames(rp.hp.hosts, chain), iterT)
}

// place names every candidate in cands and builds its placement, leaving
// it without its chain.
func (rp *roundPricer) place(cands []Candidate) {
	kn := kernelPool.Get().(*stripKernel)
	for i := range cands {
		c := &cands[i]
		rp.solveChain(kn, c.chain)
		c.name(rp.hp.hosts)
		c.Placement = kn.placement(&rp.m, c.Hosts)
	}
	kernelPool.Put(kn)
}

// round assembles the Jacobi blueprint's Round for rp's problem: the
// US-filtered pool, a Resource Selector enumerating strip-chain sets,
// rp as the fused Planner+Estimator bound to the round's pool columns,
// and, when winnerOnly is set, the metric's pruning bound
// (stripModel.bound) over the same columns. The Coordinator owns
// everything else — snapshotting, fan-out, pruning bookkeeping, and the
// deterministic reduce.
func (a *Agent) round(rp *roundPricer, winnerOnly bool) Round {
	return Round{
		Pool:     a.hp.hosts,
		Selector: string(a.coord.selector.normalized().Kind),
		Bind: func(view *InfoSnapshot) RoundPlan {
			rp.bind(view)
			plan := RoundPlan{Evaluate: rp.Evaluate}
			if winnerOnly && a.hasComputeBound() {
				if a.frozenUniverse() {
					var sets [][]int
					sets, plan.Bound, plan.Skipped = boundedSubsets(rp)
					plan.Sets = slices.Values(sets)
					return plan
				}
				plan.Bound = rp.boundSet
			}
			plan.Sets, plan.Truncated = newSelector(a.coord.selector, rp.cols, a.spec.MaxResourceSets)
			return plan
		},
	}
}

// evaluate runs the shared Coordinator round over the Jacobi blueprint
// against view (nil: the agent's own snapshotting). It returns the
// feasible candidates in selector order, without placements, the number
// of sets considered, and the round's pricer for building placements.
// Rounds that only need the winner pass winnerOnly, which prunes sets
// that cannot beat it out of the candidates; rankings pass false to get
// every feasible set.
func (a *Agent) evaluate(n int, view *InfoSnapshot, winnerOnly bool) ([]Candidate, int, *roundPricer, error) {
	if err := checkProblemSize(n); err != nil {
		return nil, 0, nil, err
	}
	rp := a.newPricer(n)
	cands, considered, err := a.coord.evaluateRound(a.round(rp, winnerOnly), view)
	return cands, considered, rp, err
}

// checkProblemSize rejects an n×n problem size that is not positive or
// whose n² grid points overflow int, where they would wrap into a
// small, wrongly priced grid. The largest valid n is 3,037,000,499.
func checkProblemSize(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: non-positive problem size %d", n)
	}
	if n > math.MaxInt/n {
		return fmt.Errorf("core: problem size %d: its n×n grid overflows int", n)
	}
	return nil
}

// hasComputeBound reports whether the metric bounds of stripModel.bound
// are sound for the agent's rounds: they rest on every band taking at
// least its points times P_i, which holds for spill penalties that never
// speed a strip up.
func (a *Agent) hasComputeBound() bool {
	return a.spillFactor >= 1
}

// boundMargin shaves the compute bound below floating-point rounding.
// The bound takes 2k+2 rounded steps for a k-host set (k reciprocals,
// k-1 adds, a divide and two multiplies) and the kernel's score 4
// (points·P_i, the spill multiplier, +C_i, the iteration count), each
// off by at most one part in 2^53. 1e-9 is about 2^23 such parts, which
// covers the accumulated error of any set up to four million hosts.
// Without it, single-host sets, whose bound equals their score in exact
// arithmetic, came out up to 2 ulp above the score. The speedup and
// cost bounds add a few steps each (a divide; a k-term cost sum), far
// inside the same margin.
const boundMargin = 1e-9

// rateBound is the compute bound of a set whose hosts together process
// rate points per second: n² points per iteration at that rate, shaved
// by boundMargin. A set with no deliverable speed is bounded at +Inf.
// The estimator's max_i(points_i·P_i·mult_i + C_i) is ≥ this for every
// placement (mult_i ≥ 1), so a bound above the incumbent proves the set
// loses.
func rateBound(rate float64, n, iterations int) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return float64(n) * float64(n) / rate * float64(iterations) * (1 - boundMargin)
}

// bound is the least score any plan on a set can reach under m's
// metric, from one of two aggregates over the set's hosts: rate, their
// summed point rate Σρ_i (read under MinExecutionTime and MaxSpeedup),
// or leastCost, their least r_i/ρ_i (read under MinCost). solo is the
// round's MaxSpeedup baseline. Every worked host's band takes at least
// its points over ρ_i, so:
//
//   - MinExecutionTime: the total is at least rateBound.
//   - MaxSpeedup scores -solo/total with solo fixed in the round, so it
//     is at least -solo/rateBound; a solo that is not positive and
//     finite gives -Inf, which never prunes.
//   - MinCost scores total/3600·Σr_i over the worked hosts. A worked
//     host holds at most iterT·ρ_i points of the n², so Σr_i·iterT ≥
//     n²·min r_i/ρ_i, and the cost is at least n²·iterations/3600 times
//     that least ratio. Weak where one host has the best speed and the
//     best price: every set holding it shares its bound.
func (m *stripModel) bound(rate, leastCost, solo float64) float64 {
	switch m.metric {
	case userspec.MaxSpeedup:
		if !(solo > 0) || math.IsInf(solo, 1) {
			return math.Inf(-1)
		}
		return -solo / rateBound(rate, m.n, m.iterations)
	case userspec.MinCost:
		return float64(m.n) * float64(m.n) * float64(m.iterations) / 3600 * leastCost * (1 - boundMargin)
	default:
		return rateBound(rate, m.n, m.iterations)
	}
}

// Schedule runs the Coordinator blueprint for an n x n problem:
//
//  1. select candidate resource sets S_i (Resource Selector),
//  2. plan a strip schedule for each S_i (Planner),
//  3. estimate each schedule's cost under the user's metric (Performance
//     Estimator),
//  4. return the schedule with the best predicted performance.
//
// The returned schedule is not yet actuated; pass it to Run or an
// Actuator.
func (a *Agent) Schedule(n int) (*Schedule, error) {
	return a.scheduleWith(n, nil)
}

// scheduleWith is Schedule with the SchedService's injection point: the
// round evaluates against an externally resolved frozen view (nil falls
// back to the agent's own snapshotting). The decision is bit-identical
// to Schedule(n) against the same frozen values — the view only moves
// snapshot ownership out of the round.
func (a *Agent) scheduleWith(n int, view *InfoSnapshot) (*Schedule, error) {
	cands, considered, rp, err := a.evaluate(n, view, true)
	if err != nil {
		return nil, err
	}
	return a.pickBest(rp, cands, considered)
}

// pickBest reduces the round's candidates and builds the winner's
// schedule — the only placement a plain round constructs.
func (a *Agent) pickBest(rp *roundPricer, cands []Candidate, considered int) (*Schedule, error) {
	bestIdx := bestCandidate(cands)
	if bestIdx < 0 {
		return nil, fmt.Errorf("core: %w: no feasible schedule among %d candidate sets", ErrNoFeasiblePlan, considered)
	}
	kn := kernelPool.Get().(*stripKernel)
	best := rp.schedule(kn, cands[bestIdx].chain)
	kernelPool.Put(kn)
	best.InfoSource = a.coord.Information().Source()
	best.CandidatesConsidered = considered
	best.CandidatesPlanned = len(cands)
	return best, nil
}

// ScheduleExplained runs the blueprint and additionally returns the top-k
// candidates by predicted score, so the user can inspect what the agent
// considered (the paper: the agent works "at machine speeds and with more
// comprehensive information" — this is the comprehension made visible).
// The round does not prune, so topK <= 0 returns every feasible
// candidate; the schedule equals Schedule(n)'s apart from
// CandidatesPlanned, which counts every feasible set. The slice is
// shared with PipelineAgent.ScheduleExplained: both blueprints explain
// themselves in the same Candidate terms.
func (a *Agent) ScheduleExplained(n, topK int) (*Schedule, []Candidate, error) {
	cands, considered, rp, err := a.evaluate(n, nil, false)
	if err != nil {
		return nil, nil, err
	}
	best, err := a.pickBest(rp, cands, considered)
	if err != nil {
		return nil, nil, err
	}
	ranked := rankCandidates(cands, topK)
	rp.place(ranked)
	return best, ranked, nil
}

// Candidates evaluates the n x n problem and returns the top-k feasible
// candidates sorted ascending by score, without committing to a schedule.
// k <= 0 returns all of them. Candidates(n, 1)[0] describes the schedule
// Schedule(n) would pick.
func (a *Agent) Candidates(n, k int) ([]Candidate, error) {
	cands, _, rp, err := a.evaluate(n, nil, false)
	if err != nil {
		return nil, err
	}
	ranked := rankCandidates(cands, k)
	rp.place(ranked)
	return ranked, nil
}

// Run schedules the problem and immediately actuates the best schedule,
// returning both the schedule and the measured execution time.
func (a *Agent) Run(n int, act Actuator) (*Schedule, float64, error) {
	s, err := a.Schedule(n)
	if err != nil {
		return nil, 0, err
	}
	auditKey := a.coord.auditPrediction(s.PredictedTotal, hostClass(a.tp, s.Hosts))
	sp := a.coord.actuateSpan()
	measured, err := act.Actuate(s.Placement)
	sp.End()
	if err != nil {
		return s, 0, fmt.Errorf("core: actuation failed: %w", err)
	}
	a.coord.auditActual(auditKey, measured)
	return s, measured, nil
}
