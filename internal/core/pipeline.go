package core

import (
	"fmt"
	"iter"
	"sort"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/react"
	"apples/internal/userspec"
)

// PipelineSchedule is the chosen schedule of a PipelineAgent: either a
// producer/consumer mapping with a tuned pipeline unit, or a single-site
// fallback when no pair beats the best single machine.
type PipelineSchedule struct {
	// Producer and Consumer name the mapping; for a single-site schedule
	// both equal SingleSite and Unit is 0.
	Producer, Consumer string
	// SingleSite is non-empty when one machine alone is predicted best.
	SingleSite string
	// Unit is the chosen pipeline transfer unit (surface functions per
	// subdomain).
	Unit int
	// Predicted is the estimated execution time in seconds.
	Predicted float64
	// CandidatesConsidered counts enumerated mappings (singles + ordered
	// pairs); mappings the model rejects are still counted as considered.
	CandidatesConsidered int
}

// String summarizes the schedule.
func (s *PipelineSchedule) String() string {
	if s.SingleSite != "" {
		return fmt.Sprintf("pipeline-schedule{single-site=%s pred=%.0fs}", s.SingleSite, s.Predicted)
	}
	return fmt.Sprintf("pipeline-schedule{%s->%s unit=%d pred=%.0fs}",
		s.Producer, s.Consumer, s.Unit, s.Predicted)
}

// PipelineAgent is the AppLeS for two-task pipelined applications —
// exactly the agent Section 4.2 sketches for 3D-REACT: the HAT supplies
// computation-to-communication ratios and per-architecture
// implementations, the Resource Selector proposes viable machine pairs
// under the User Specifications, the Planner parameterizes the analytic
// pipeline model with forecasts and derives the transfer unit "which
// yields the necessary overlap", and the Performance Estimator compares
// candidate mappings (including single-site fallbacks) under the user's
// metric. Like Agent, it is a thin instantiation of the shared
// Coordinator round, so it evaluates mappings against a per-round
// information snapshot and accepts the same options.
type PipelineAgent struct {
	tp    *grid.Topology
	tpl   *hat.Template
	spec  *userspec.Spec
	coord Coordinator
	opt   react.Options
}

// NewPipelineAgent assembles a pipeline agent. The template must be
// task-parallel with lhsf/logd tasks joined by a PipelineFlow comm edge
// (the 3D-REACT shape). Options tune the shared evaluation engine
// exactly as for NewAgent (the pipeline blueprint has no memory model,
// so WithSpillFactor is ignored).
func NewPipelineAgent(tp *grid.Topology, tpl *hat.Template, spec *userspec.Spec, info Information, opt react.Options, opts ...AgentOption) (*PipelineAgent, error) {
	if err := tpl.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrBadTemplate, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tpl.Paradigm != hat.TaskParallel {
		return nil, fmt.Errorf("core: %w: pipeline blueprint needs a task-parallel template, got %s", ErrBadTemplate, tpl.Paradigm)
	}
	if _, ok := tpl.Task("lhsf"); !ok {
		return nil, fmt.Errorf("core: %w: pipeline blueprint needs an lhsf task", ErrBadTemplate)
	}
	if _, ok := tpl.Task("logd"); !ok {
		return nil, fmt.Errorf("core: %w: pipeline blueprint needs a logd task", ErrBadTemplate)
	}
	hasFlow := false
	for _, c := range tpl.Comms {
		if c.Pattern == hat.PipelineFlow {
			hasFlow = true
		}
	}
	if !hasFlow {
		return nil, fmt.Errorf("core: %w: pipeline blueprint needs a pipeline comm edge", ErrBadTemplate)
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
	return &PipelineAgent{tp: tp, tpl: tpl, spec: spec, coord: cfg.Coordinator, opt: opt}, nil
}

// modelFor parameterizes the analytic pipeline model for one mapping,
// discounting machine speeds by forecast availability and the link by
// forecast bandwidth — the dynamic-information step the paper adds over
// the developers' hand-built static model. Forecasts come from the given
// information view (a per-round snapshot during evaluation).
func (a *PipelineAgent) modelFor(info Information, producer, consumer *grid.Host) (*react.Model, error) {
	m, err := react.NewModel(a.tp, a.tpl, producer.Name, consumer.Name, a.opt)
	if err != nil {
		return nil, err
	}
	m.TL /= floorAvailability(info.Availability(producer.Name))
	m.TD /= floorAvailability(info.Availability(consumer.Name))
	if bw := info.RouteBandwidth(producer.Name, consumer.Name); bw > 0 && bw < 1e29 {
		var comm hat.Comm
		for _, c := range a.tpl.Comms {
			if c.Pattern == hat.PipelineFlow {
				comm = c
			}
		}
		m.SecPerUnitXfer = comm.BytesPerUnit / 1e6 / bw
	}
	m.Latency = info.RouteLatency(producer.Name, consumer.Name)
	return m, nil
}

// singleSitePrediction estimates a machine running both tasks alone,
// discounted by forecast availability.
func (a *PipelineAgent) singleSitePrediction(info Information, h *grid.Host) (float64, error) {
	t, err := react.PredictSingleSite(a.tp, a.tpl, h.Name, a.opt)
	if err != nil {
		return 0, err
	}
	return t / floorAvailability(info.Availability(h.Name)), nil
}

// pipelinePairHosts bounds the quadratic pair family for heuristic
// selector kinds: ordered pairs are drawn from the 32 most effective
// hosts (speed × forecast availability), which keeps thousand-host pools
// tractable while singles still cover the full pool.
const pipelinePairHosts = 32

// pairSelector streams every single machine of pool followed by ordered
// producer/consumer pairs. The exhaustive kind enumerates every pair in
// pool order; heuristic kinds restrict the pair family to the top hosts
// by frozen effective speed, name tie-break.
func pairSelector(spec SelectorSpec, info Information, pool []*grid.Host) iter.Seq[[]*grid.Host] {
	pairPool := pool
	if spec.Kind != SelectorExhaustive && len(pool) > pipelinePairHosts {
		pairPool = append([]*grid.Host(nil), pool...)
		eff := make(map[string]float64, len(pool))
		for _, h := range pool {
			eff[h.Name] = h.Speed * floorAvailability(info.Availability(h.Name))
		}
		sort.SliceStable(pairPool, func(i, j int) bool {
			if eff[pairPool[i].Name] != eff[pairPool[j].Name] {
				return eff[pairPool[i].Name] > eff[pairPool[j].Name]
			}
			return pairPool[i].Name < pairPool[j].Name
		})
		pairPool = pairPool[:pipelinePairHosts]
	}
	return func(yield func([]*grid.Host) bool) {
		for _, h := range pool {
			if !yield([]*grid.Host{h}) {
				return
			}
		}
		for _, p := range pairPool {
			for _, c := range pairPool {
				if p.Name != c.Name && !yield([]*grid.Host{p, c}) {
					return
				}
			}
		}
	}
}

// round assembles the pipeline blueprint's Round: the US-filtered pool, a
// Resource Selector streaming every single machine followed by ordered
// producer/consumer pairs (all of them under the exhaustive kind; pairs
// among the most effective hosts under the heuristic kinds), and an
// evaluator that parameterizes the analytic model and tunes the transfer
// unit. Single-site mappings have one host and Unit 0; pipeline mappings
// have [producer, consumer] and the tuned unit. Every supported metric
// reduces to minimizing predicted time here (speedup is bestSingle/t,
// monotone in t for a fixed baseline), so Score is the predicted
// execution time. The blueprint has no pruning bound, so the plan's
// Bound is nil and every round evaluates every mapping.
func (a *PipelineAgent) round() Round {
	spec := a.coord.selector.normalized()
	pool := a.spec.Filter(a.tp.Hosts())
	return Round{
		Pool:     pool,
		Selector: string(spec.Kind),
		Bind: func(info *InfoSnapshot) RoundPlan {

			minU, maxU := a.tpl.PipelineUnitMin, a.tpl.PipelineUnitMax
			if minU == 0 {
				minU = 1
			}
			if maxU < minU {
				maxU = minU
			}

			evaluate := func(set []*grid.Host) (Candidate, bool) {
				if len(set) == 1 {
					t, err := a.singleSitePrediction(info, set[0])
					if err != nil {
						return Candidate{}, false
					}
					return Candidate{Hosts: []string{set[0].Name}, PredictedTotal: t, Score: t}, true
				}
				m, err := a.modelFor(info, set[0], set[1])
				if err != nil {
					return Candidate{}, false
				}
				u, t := m.BestUnit(minU, maxU)
				return Candidate{Hosts: []string{set[0].Name, set[1].Name}, PredictedTotal: t, Score: t, Unit: u}, true
			}
			return RoundPlan{Sets: pairSelector(spec, info, pool), Evaluate: evaluate}
		},
	}
}

// evaluateRound runs the shared Coordinator round over the pipeline
// blueprint.
func (a *PipelineAgent) evaluateRound() ([]Candidate, int, error) {
	return a.coord.evaluateRound(a.round(), nil)
}

// scheduleFrom reduces evaluated candidates to the chosen mapping via the
// shared (score, index) rule: the strictly best score wins, ties keep the
// earliest candidate (single-site mappings are enumerated before pairs,
// as before).
func (a *PipelineAgent) scheduleFrom(cands []Candidate, considered int) (*PipelineSchedule, error) {
	bestIdx := bestCandidate(cands)
	if bestIdx < 0 {
		return nil, fmt.Errorf("core: %w: no feasible pipeline mapping among %d candidates", ErrNoFeasiblePlan, considered)
	}
	c := cands[bestIdx]
	best := &PipelineSchedule{Predicted: c.Score, CandidatesConsidered: considered}
	if len(c.Hosts) == 1 {
		best.SingleSite = c.Hosts[0]
		best.Producer, best.Consumer = c.Hosts[0], c.Hosts[0]
	} else {
		best.Producer, best.Consumer = c.Hosts[0], c.Hosts[1]
		best.Unit = c.Unit
	}
	return best, nil
}

// Schedule runs the blueprint: filter machines through the US, evaluate
// every ordered pair (and every single machine), and return the mapping
// with the best predicted performance under the user's metric.
func (a *PipelineAgent) Schedule() (*PipelineSchedule, error) {
	cands, considered, err := a.evaluateRound()
	if err != nil {
		return nil, err
	}
	return a.scheduleFrom(cands, considered)
}

// ScheduleExplained runs the blueprint and additionally returns the top-k
// candidate mappings sorted ascending by score — the same Candidate
// surface Agent.ScheduleExplained exposes, so callers explain both
// blueprints uniformly. topK <= 0 returns every feasible candidate.
func (a *PipelineAgent) ScheduleExplained(topK int) (*PipelineSchedule, []Candidate, error) {
	cands, considered, err := a.evaluateRound()
	if err != nil {
		return nil, nil, err
	}
	best, err := a.scheduleFrom(cands, considered)
	if err != nil {
		return nil, nil, err
	}
	return best, rankCandidates(cands, topK), nil
}

// Candidates evaluates every mapping and returns the top-k sorted
// ascending by score, without committing to a schedule. k <= 0 returns
// all of them.
func (a *PipelineAgent) Candidates(k int) ([]Candidate, error) {
	cands, _, err := a.evaluateRound()
	if err != nil {
		return nil, err
	}
	return rankCandidates(cands, k), nil
}

// Run schedules and immediately actuates: the pipeline executes on the
// simulated machines (or the single-site variant runs sequentially) and
// the measured time is returned alongside the schedule.
func (a *PipelineAgent) Run() (*PipelineSchedule, float64, error) {
	s, err := a.Schedule()
	if err != nil {
		return nil, 0, err
	}
	hosts := []string{s.Producer, s.Consumer}
	if s.SingleSite != "" {
		hosts = hosts[:0]
		hosts = append(hosts, s.SingleSite)
	}
	auditKey := a.coord.auditPrediction(s.Predicted, hostClass(a.tp, hosts))
	sp := a.coord.actuateSpan()
	defer sp.End()
	if s.SingleSite != "" {
		res, err := react.RunSingleSite(a.tp, a.tpl, s.SingleSite, a.opt)
		if err != nil {
			return s, 0, err
		}
		a.coord.auditActual(auditKey, res.Time)
		return s, res.Time, nil
	}
	res, err := react.RunPipeline(a.tp, a.tpl, s.Producer, s.Consumer, s.Unit, a.opt)
	if err != nil {
		return s, 0, err
	}
	a.coord.auditActual(auditKey, res.Time)
	return s, res.Time, nil
}
