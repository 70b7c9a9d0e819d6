package core

import (
	"fmt"
	"math"
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
	// Hosts lists the selected resources in strip-chain order.
	Hosts []string
	// CandidatesConsidered counts resource sets evaluated, and
	// CandidatesPlanned those that produced a feasible plan. With
	// WithPruning enabled, sets skipped by the bound are not planned, so
	// CandidatesPlanned can be lower (and timing-dependent under parallel
	// evaluation); the selected schedule itself never changes.
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

	// spillFactor mirrors the execution substrate's out-of-memory penalty
	// so spills are priced honestly (default 25, matching jacobi.Config;
	// see WithSpillFactor).
	spillFactor float64
}

// NewAgent assembles an agent from its information pool: the application
// template (HAT), the user specification (US), and a dynamic information
// source (NWS, oracle, or static). Options tune the evaluation engine;
// the zero-option agent evaluates candidates in parallel over GOMAXPROCS
// workers against a per-round information snapshot and makes exactly the
// decision the sequential path would.
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
	a := &Agent{tp: tp, tpl: tpl, spec: spec, coord: cfg.Coordinator, spillFactor: 25}
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

// roundPricer is the Jacobi blueprint's CandidateEvaluator for one
// scheduling round: it feeds each candidate chain from the round's
// information view into a private strip kernel and prices it. Its
// fields are fixed once the round binds, so concurrent workers share
// it; after the round it re-solves the winner (and any requested top-k)
// into placements against the same view.
type roundPricer struct {
	m    stripModel
	tp   *grid.Topology
	task *hat.Task
	spec *userspec.Spec
	info Information
	solo float64 // MaxSpeedup baseline: best single-host total
}

func (a *Agent) newPricer(n int) *roundPricer {
	return &roundPricer{m: a.model(n), tp: a.tp, task: &a.tpl.Tasks[0], spec: a.spec}
}

// solve feeds and solves chain set into kn.
func (rp *roundPricer) solve(kn *stripKernel, set []*grid.Host) (float64, bool) {
	if kn.feedSet(&rp.m, rp.task, rp.spec, rp.info, set) >= 0 {
		return 0, false
	}
	return kn.solve(&rp.m, len(set))
}

// Evaluate implements CandidateEvaluator. The candidate carries no
// placement: only the winner and a requested top-k are ever built.
func (rp *roundPricer) Evaluate(set []*grid.Host) (Candidate, bool) {
	kn := kernelPool.Get().(*stripKernel)
	iterT, ok := rp.solve(kn, set)
	var score float64
	if ok {
		score = kn.score(&rp.m, len(set), iterT, rp.solo)
	}
	kernelPool.Put(kn)
	if !ok {
		return Candidate{}, false
	}
	hosts := make([]string, len(set))
	for j, h := range set {
		hosts[j] = h.Name
	}
	return Candidate{
		Hosts:             hosts,
		PredictedIterTime: iterT,
		PredictedTotal:    iterT * float64(rp.m.iterations),
		Score:             score,
	}, true
}

// resolve re-solves an evaluated candidate's chain into kn, returning
// its iteration time.
func (rp *roundPricer) resolve(kn *stripKernel, c *Candidate) float64 {
	set := make([]*grid.Host, len(c.Hosts))
	for i, name := range c.Hosts {
		set[i] = rp.tp.Host(name)
	}
	iterT, _ := rp.solve(kn, set)
	return iterT
}

// place builds the placement of every candidate in cands.
func (rp *roundPricer) place(cands []Candidate) {
	kn := kernelPool.Get().(*stripKernel)
	for i := range cands {
		rp.resolve(kn, &cands[i])
		cands[i].Placement = kn.placement(&rp.m, cands[i].Hosts)
	}
	kernelPool.Put(kn)
}

// round assembles the Jacobi blueprint's Round for rp's problem: the
// US-filtered pool, a Resource Selector enumerating strip-chain sets,
// rp as the fused Planner+Estimator bound to the round's information
// view, and (under MinExecutionTime) the compute-time pruning bound.
// The Coordinator owns everything else — snapshotting, fan-out, pruning
// bookkeeping, and the deterministic reduce.
func (a *Agent) round(rp *roundPricer) Round {
	pool := a.spec.Filter(a.tp.Hosts())
	return Round{
		Pool:     pool,
		Selector: string(a.coord.selector.normalized().Kind),
		Bind: func(info Information) (ResourceSelector, CandidateEvaluator, error) {
			rs := &resourceSelector{tp: a.tp, info: info}
			sel := newSelector(a.coord.selector, rs, a.spec.MaxResourceSets)
			rp.info = info
			rp.solo = math.Inf(1)
			if rp.m.metric == userspec.MaxSpeedup {
				kn := kernelPool.Get().(*stripKernel)
				for _, h := range pool {
					iterT, ok := rp.solve(kn, []*grid.Host{h})
					if t := iterT * float64(rp.m.iterations); ok && t < rp.solo {
						rp.solo = t
					}
				}
				kernelPool.Put(kn)
			}
			return sel, rp, nil
		},
		Bound: func(info Information) LowerBounder {
			// The bound is only sound for objectives that equal predicted
			// total time.
			if a.spec.Metric != userspec.MinExecutionTime {
				return nil
			}
			secPP := secondsPerPoint(pool, info, a.tpl.Tasks[0])
			return LowerBoundFunc(func(set []*grid.Host) float64 {
				return computeLowerBound(set, secPP, rp.m.n, rp.m.iterations)
			})
		},
	}
}

// evaluate runs the shared Coordinator round over the Jacobi blueprint
// against view (nil: the agent's own snapshotting) with a worker grant
// (0: the configured parallelism). It returns the feasible candidates
// in selector order, without placements, the number of sets
// considered, and the round's pricer for building placements.
func (a *Agent) evaluate(n int, view infoView, workers int) ([]Candidate, int, *roundPricer, error) {
	if n <= 0 {
		return nil, 0, nil, fmt.Errorf("core: non-positive problem size %d", n)
	}
	rp := a.newPricer(n)
	cands, considered, err := a.coord.evaluateRound(a.round(rp), view, workers)
	return cands, considered, rp, err
}

// secondsPerPoint resolves the planner's compute-cost coefficient for
// every pool host once, for the pruning bound. Hosts with no deliverable
// speed get +Inf (their sets cannot plan anyway).
func secondsPerPoint(pool []*grid.Host, info Information, task hat.Task) map[string]float64 {
	out := make(map[string]float64, len(pool))
	for _, h := range pool {
		avail := floorAvailability(info.Availability(h.Name))
		speed := h.Speed * avail * task.SpeedFactorOn(h.Arch)
		if speed <= 0 {
			out[h.Name] = math.Inf(1)
			continue
		}
		out[h.Name] = task.FlopPerUnit / 1e6 / speed
	}
	return out
}

// computeLowerBound is the least total time any plan on `set` can cost
// under the MinExecutionTime objective: n² points spread perfectly over
// the set's aggregate point rate, with zero communication and no spill.
// The estimator's max_i(points_i·P_i·mult_i + C_i) is ≥ this for every
// placement, so exceeding the incumbent strictly proves the set loses.
func computeLowerBound(set []*grid.Host, secPP map[string]float64, n, iterations int) float64 {
	rate := 0.0
	for _, h := range set {
		p := secPP[h.Name]
		if p <= 0 || math.IsInf(p, 1) {
			continue
		}
		rate += 1 / p
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return float64(n) * float64(n) / rate * float64(iterations)
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
	return a.scheduleWith(n, nil, 0)
}

// scheduleWith is Schedule with the SchedService's injection points: the
// round evaluates against an externally resolved frozen view (nil falls
// back to the agent's own snapshotting) with a granted worker count
// (0 keeps the configured parallelism). The decision is bit-identical to
// Schedule(n) against the same frozen values — the view only moves
// snapshot ownership out of the round, and the worker grant only bounds
// fan-out, which the deterministic (score, index) reduce is immune to.
func (a *Agent) scheduleWith(n int, view infoView, workers int) (*Schedule, error) {
	cands, considered, rp, err := a.evaluate(n, view, workers)
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
	c := &cands[bestIdx]
	kn := kernelPool.Get().(*stripKernel)
	best := kn.schedule(&rp.m, append([]string(nil), c.Hosts...), rp.resolve(kn, c))
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
// topK <= 0 returns every feasible candidate. The slice is shared with
// PipelineAgent.ScheduleExplained: both blueprints explain themselves in
// the same Candidate terms.
func (a *Agent) ScheduleExplained(n, topK int) (*Schedule, []Candidate, error) {
	cands, considered, rp, err := a.evaluate(n, nil, 0)
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
	cands, _, rp, err := a.evaluate(n, nil, 0)
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
