package core

import (
	"fmt"
	"iter"
	"math"
	"sync/atomic"
	"time"

	"apples/internal/grid"
	"apples/internal/obs"
	"apples/internal/obs/audit"
)

// This file is the generic half of the AppLeS blueprint (Figure 1): one
// Coordinator drives Resource Selector -> Planner -> Performance
// Estimator -> Actuator for *every* application paradigm. A concrete
// agent (the Jacobi2D Agent, the 3D-REACT PipelineAgent, or a future
// master/worker HAT agent) only supplies the pluggable subsystems below;
// the round itself — information snapshot, bounded parallel fan-out,
// optional selection-preserving pruning, and the deterministic
// (score, index) reduce — is shared code.

// ResourceSelector enumerates the candidate resource sets the Coordinator
// fans out in one scheduling round. For a data-parallel blueprint the
// sets are host chains; for a pipeline blueprint they are single machines
// and ordered producer/consumer pairs. The enumeration order is the
// tie-break order of the reduce, so it must be deterministic.
//
// The contract is streaming: SelectSeq returns a sequence the
// Coordinator consumes as candidates are produced, so a selector over a
// 2048-host pool never materializes an exponential slice. A yielded set
// is owned by the Coordinator afterwards — selectors must not reuse the
// backing array. Selector construction (ranking, cost models) should
// happen eagerly in SelectSeq so the round's "select" stage span keeps
// measuring it; only per-set work belongs inside the sequence.
// Slice-returning selectors keep working through ResourceSelectorFunc.
type ResourceSelector interface {
	SelectSeq(pool []*grid.Host) iter.Seq[[]*grid.Host]
}

// ResourceSelectorFunc adapts a slice-returning function to the
// streaming ResourceSelector interface — the compatibility shim for
// pre-streaming selectors: the function runs eagerly (inside the select
// stage, as before) and the sequence yields its sets in order.
type ResourceSelectorFunc func(pool []*grid.Host) [][]*grid.Host

// SelectSeq implements ResourceSelector.
func (f ResourceSelectorFunc) SelectSeq(pool []*grid.Host) iter.Seq[[]*grid.Host] {
	sets := f(pool)
	return func(yield func([]*grid.Host) bool) {
		for _, set := range sets {
			if !yield(set) {
				return
			}
		}
	}
}

// SelectorStreamFunc adapts a sequence-returning function directly to
// ResourceSelector, for selectors that are naturally streaming.
type SelectorStreamFunc func(pool []*grid.Host) iter.Seq[[]*grid.Host]

// SelectSeq implements ResourceSelector.
func (f SelectorStreamFunc) SelectSeq(pool []*grid.Host) iter.Seq[[]*grid.Host] { return f(pool) }

// TruncationReporter is implemented by selectors that may cap their
// enumeration (e.g. userspec.MaxResourceSets). After draining the
// sequence the Coordinator asks whether the cap hit and emits an
// EvTruncated trace event plus the sched_selector_truncated_total
// counter, so a capped round is visible in decision traces.
type TruncationReporter interface {
	// Truncated reports how many candidate sets the cap cut from the
	// most recent SelectSeq enumeration (capped is false when the
	// enumeration ran to completion).
	Truncated() (dropped int, capped bool)
}

// CandidateEvaluator is the fused Planner + Performance Estimator: it
// plans one candidate resource set and scores the plan under the user's
// metric, returning the evaluated Candidate (lower Score is better) or
// ok=false when the set is infeasible. Evaluate is called concurrently
// for distinct sets, so implementations must not mutate shared state;
// they read the round's frozen information view instead.
type CandidateEvaluator interface {
	Evaluate(set []*grid.Host) (c Candidate, ok bool)
}

// CandidateEvaluatorFunc adapts a function to CandidateEvaluator.
type CandidateEvaluatorFunc func(set []*grid.Host) (Candidate, bool)

// Evaluate implements CandidateEvaluator.
func (f CandidateEvaluatorFunc) Evaluate(set []*grid.Host) (Candidate, bool) { return f(set) }

// LowerBounder supplies a cheap bound on the best score any plan over a
// candidate set can achieve. The bound must never overestimate: the
// Coordinator skips a set only when its bound already exceeds the best
// score seen, so a sound bound makes pruning selection-preserving.
type LowerBounder interface {
	LowerBound(set []*grid.Host) float64
}

// LowerBoundFunc adapts a function to LowerBounder.
type LowerBoundFunc func(set []*grid.Host) float64

// LowerBound implements LowerBounder.
func (f LowerBoundFunc) LowerBound(set []*grid.Host) float64 { return f(set) }

// Round is one scheduling round handed to the Coordinator by a blueprint
// agent: the US-filtered host pool plus factories that bind the
// application-specific subsystems to the round's information view.
type Round struct {
	// Pool is the host pool after User Specification filtering. An empty
	// pool fails the round with ErrNoFeasibleHosts.
	Pool []*grid.Host
	// Bind builds the round's Resource Selector and fused
	// Planner+Estimator against the round's frozen information view.
	Bind func(info Information) (ResourceSelector, CandidateEvaluator, error)
	// Bound, when non-nil, builds the pruning bound for the round. It is
	// only invoked when the Coordinator has pruning enabled, and may
	// return nil to decline (e.g. when the user's metric is not the one
	// the bound is sound for).
	Bound func(info Information) LowerBounder
	// Selector labels the round's candidate counter
	// (`sched_candidates_total{selector=...}`). The blueprint agents set
	// it to their configured selector kind; empty means "custom".
	Selector string
}

// Coordinator owns the generic AppLeS scheduling round. It is configured
// once per agent (information source, worker-pool width, pruning,
// selector) and reused every round; the zero value is not useful —
// construct through NewCoordinator or an agent constructor.
type Coordinator struct {
	info Information

	// parallelism bounds the candidate-evaluation worker pool (0 =
	// GOMAXPROCS, 1 = sequential). See WithParallelism.
	parallelism int
	// pruning enables best-so-far candidate pruning for rounds that
	// supply a LowerBounder. See WithPruning.
	pruning bool
	// selector is the candidate-enumeration strategy the blueprint
	// agents bind each round (default exhaustive). See WithSelector.
	selector SelectorSpec

	// tracer receives the round's decision trace; nil (the default)
	// means tracing is off and every trace site reduces to one pointer
	// check. See WithTracer.
	tracer obs.Tracer
	// met holds pre-resolved metric handles; nil means metrics are off.
	// See WithMetrics.
	met *roundMetrics
	// stages times the round's phases into per-stage histograms (and
	// EvSpan trace events when its timer carries a tracer); nil means
	// stage timing is off. See WithStageTiming.
	stages *obs.StageTimer
	// rounds numbers scheduling rounds for the trace. Shared by pointer
	// so derived agents (clone, WaitOrRun's dedicated agent) keep ids
	// unique within one lineage.
	rounds *atomic.Uint64
	// aud, when non-nil, joins each Run's winning prediction with its
	// measured actual; audTenant labels the decisions. See WithAudit.
	aud       *audit.Engine
	audTenant string
}

// roundMetrics are the Coordinator's metric handles, resolved once by
// WithMetrics so the round hot path only performs atomic updates. The
// per-selector candidate counter is the exception: its registry key
// depends on the round's selector label, so it is resolved through the
// registry once per round (not per candidate).
type roundMetrics struct {
	rounds     *obs.Counter
	evaluated  *obs.Counter
	pruned     *obs.Counter
	infeasible *obs.Counter
	truncated  *obs.Counter

	// Delta-aware session rounds (ReschedSession): the fraction of the
	// frozen universe re-scored last round, and the running re-score
	// total.
	deltaRatio *obs.Gauge
	rescored   *obs.Counter

	roundLatency    *obs.Histogram
	snapshotLatency *obs.Histogram

	reg *obs.Metrics
}

// candidates resolves the labeled per-selector candidate counter,
// `sched_candidates_total{selector=...}`.
func (m *roundMetrics) candidates(selector string) *obs.Counter {
	if selector == "" {
		selector = "custom"
	}
	return m.reg.Counter(obs.NameWithLabels(obs.MetricCandidates, "selector", selector))
}

// NewCoordinator builds a coordinator over an information source with the
// given evaluation options, for callers assembling a custom blueprint
// agent outside the built-in Agent/PipelineAgent pair.
func NewCoordinator(info Information, opts ...AgentOption) *Coordinator {
	cfg := newCoordConfig(info)
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	c := cfg.Coordinator
	return &c
}

// Information returns the coordinator's underlying information source
// (not the per-round snapshot).
func (c *Coordinator) Information() Information { return c.info }

// View resolves the frozen information view the coordinator would
// evaluate the named hosts against. Sequential re-estimation paths (e.g.
// pricing an existing placement before a rescheduling decision) share it
// so they see exactly what a scheduling round would.
func (c *Coordinator) View(hosts []string) Information {
	return snapshotInformation(c.info, hosts)
}

// EvaluateRound runs the blueprint round: resolve the information view,
// bind the subsystems, stream candidate sets off the selector, fan them
// across the worker pool, and reduce deterministically. It returns the
// feasible candidates in enumeration order plus the number of sets
// considered.
//
// The round proceeds in three steps:
//
//  1. snapshot the information pool for the filtered hosts, so every
//     availability/bandwidth/latency value is resolved exactly once
//     (large pools freeze per-link values and compose pairs on demand);
//  2. consume the selector's sequence as it is produced — sequentially
//     inline, or through a bounded worker pool fed by the producing
//     goroutine — planning and estimating each set against the immutable
//     snapshot; the full candidate list is never materialized;
//  3. merge worker results and reduce in enumeration-index order, which
//     makes the outcome independent of goroutine interleaving: the same
//     candidates are feasible with the same scores, so the eventual
//     (score, index) minimum is the one the sequential loop would have
//     picked.
//
// With pruning enabled and a bound supplied, workers additionally share
// the best score seen so far and skip sets whose lower bound already
// exceeds it. The bound never overestimates, so a pruned set could not
// have won; pruning only reduces how many sets are planned.
func (c *Coordinator) EvaluateRound(r Round) ([]Candidate, int, error) {
	return c.evaluateRound(r, nil, 0)
}

// evaluateRound is EvaluateRound with the SchedService's injection
// points exposed: a non-nil view is an externally resolved frozen
// information view (typically a cache-shared snapshot) that replaces
// the round's own freeze, and workers > 0 overrides the configured
// parallelism for this round only — the service grants each round's
// fan-out width out of a service-wide budget. With view == nil and
// workers == 0 this is exactly the standalone round; an injected view
// built by roundSnapshot over the same pool yields bit-identical
// decisions, since the view only changes who froze the values, never
// the values themselves.
func (c *Coordinator) evaluateRound(r Round, view infoView, workersOverride int) ([]Candidate, int, error) {
	if len(r.Pool) == 0 {
		return nil, 0, fmt.Errorf("core: %w: user specification filters out every host", ErrNoFeasibleHosts)
	}
	// Observability fast path: with no tracer, no metrics, and no stage
	// timing the round does zero extra work — no clock reads, no round
	// numbering, and the per-candidate sites below are single nil checks.
	tr, met, stages := c.tracer, c.met, c.stages
	observing := tr != nil || met != nil || stages != nil
	var round uint64
	var start time.Time
	if observing {
		round = c.rounds.Add(1)
		start = time.Now()
	}
	workers := c.parallelism
	if workersOverride > 0 {
		workers = workersOverride
	}
	if view != nil {
		// An injected view is already frozen; the round reads it exactly
		// like a snapshot it built itself. The snapshot event re-reports
		// the original build's stats and marks the reuse.
		if tr != nil {
			st := view.Stats()
			tr.Emit(obs.Event{Round: round, Type: obs.EvSnapshot, Pool: st.Hosts,
				Pairs: st.Pairs, Queries: st.SourceQueries, SharedSnap: true})
		}
	} else {
		snapSpan := stages.Start(round, obs.StageSnapshot)
		view = roundSnapshot(c.info, r.Pool)
		if observing {
			if met != nil {
				met.snapshotLatency.Observe(time.Since(start).Seconds())
			}
			if tr != nil {
				st := view.Stats()
				tr.Emit(obs.Event{Round: round, Type: obs.EvSnapshot,
					Pool: st.Hosts, Pairs: st.Pairs, Queries: st.SourceQueries})
			}
			snapSpan.End()
		}
	}
	selSpan := stages.Start(round, obs.StageSelect)
	sel, ev, err := r.Bind(view)
	if err != nil {
		return nil, 0, err
	}
	seq := sel.SelectSeq(r.Pool)
	selSpan.End()

	var bound LowerBounder
	var incumbent *bestScore
	if c.pruning && r.Bound != nil {
		if bound = r.Bound(view); bound != nil {
			incumbent = newBestScore()
		}
	}

	// evalOne plans and estimates candidate set i (0-based enumeration
	// index); it is called concurrently for distinct sets.
	evalOne := func(i int, set []*grid.Host) (Candidate, bool) {
		if incumbent != nil {
			lb := bound.LowerBound(set)
			if inc := incumbent.load(); lb > inc {
				if met != nil {
					met.pruned.Inc()
				}
				if tr != nil {
					tr.Emit(obs.Event{Round: round, Type: obs.EvPruned, Index: i + 1,
						Hosts: hostNames(set), Bound: lb, Incumbent: inc})
				}
				return Candidate{}, false
			}
		}
		cand, ok := ev.Evaluate(set)
		if !ok {
			if met != nil {
				met.infeasible.Inc()
			}
			if tr != nil {
				tr.Emit(obs.Event{Round: round, Type: obs.EvInfeasible, Index: i + 1,
					Hosts: hostNames(set)})
			}
			return Candidate{}, false
		}
		if met != nil {
			met.evaluated.Inc()
		}
		if tr != nil {
			tr.Emit(obs.Event{Round: round, Type: obs.EvCandidate, Index: i + 1,
				Hosts: cand.Hosts, Predicted: cand.PredictedTotal, Score: cand.Score})
		}
		if incumbent != nil {
			incumbent.update(cand.Score)
		}
		return cand, true
	}

	planSpan := stages.Start(round, obs.StagePlanEstimate)
	cands, considered := runStreamed(seq, workers, evalOne)
	planSpan.End()

	if observing {
		if met != nil {
			met.candidates(r.Selector).Add(uint64(considered))
		}
		if trc, ok := sel.(TruncationReporter); ok {
			if dropped, capped := trc.Truncated(); capped {
				if met != nil {
					met.truncated.Inc()
				}
				if tr != nil {
					tr.Emit(obs.Event{Round: round, Type: obs.EvTruncated,
						Considered: considered, Dropped: dropped})
				}
			}
		}
	}

	reduceSpan := stages.Start(round, obs.StageReduce)
	if observing {
		if met != nil {
			met.rounds.Inc()
			met.roundLatency.Observe(time.Since(start).Seconds())
		}
		if tr != nil {
			// The winner event applies the same deterministic
			// (score, index) reduce the blueprint agents use in
			// pickBest/scheduleFrom, so the trace closes every round with
			// the decision it produced.
			if bi := bestCandidate(cands); bi >= 0 {
				w := cands[bi]
				tr.Emit(obs.Event{Round: round, Type: obs.EvWinner, Hosts: w.Hosts,
					Predicted: w.PredictedTotal, Score: w.Score,
					Considered: considered, Planned: len(cands)})
			} else {
				tr.Emit(obs.Event{Round: round, Type: obs.EvWinner,
					Reason: "no-feasible-plan", Considered: considered})
			}
		}
		reduceSpan.End()
	}
	return cands, considered, nil
}

// actuateSpan opens the actuation-stage span for the most recent round
// (the blueprints' Run methods actuate right after Schedule). Inert
// when stage timing is off.
func (c *Coordinator) actuateSpan() obs.Span {
	return c.stages.Start(c.rounds.Load(), obs.StageActuate)
}

// hostNames flattens a candidate set for a trace event.
func hostNames(set []*grid.Host) []string {
	out := make([]string, len(set))
	for i, h := range set {
		out[i] = h.Name
	}
	return out
}

// bestCandidate reduces evaluated candidates with the deterministic
// (score, index) rule both blueprints share: the strictly lowest score
// wins, ties keep the earliest candidate in enumeration order. Returns
// -1 when no candidate is feasible.
func bestCandidate(cands []Candidate) int {
	bestIdx, best := -1, math.Inf(1)
	for i, c := range cands {
		if c.Score < best {
			bestIdx, best = i, c.Score
		}
	}
	return bestIdx
}
