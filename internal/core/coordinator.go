package core

import (
	"fmt"
	"iter"
	"math"
	"runtime"
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
// master/worker HAT agent) only supplies a Round binding its subsystems;
// the round itself — information snapshot, pool-size-driven fan-out,
// selection-preserving pruning, and the deterministic (score, index)
// reduce — is shared code.

// Round is one scheduling round handed to the Coordinator by a blueprint
// agent: the US-filtered host pool plus the binding of the
// application-specific subsystems to the round's information view.
type Round struct {
	// Pool is the host pool after User Specification filtering. An empty
	// pool fails the round with ErrNoFeasibleHosts.
	Pool []*grid.Host
	// Bind builds the round's plan against its frozen information view
	// over Pool, whose position i is Pool[i] (Pool holds no duplicate
	// host), so the plan may read it by pool index or by host name.
	// It runs inside the round's select stage span, so selector
	// construction (ranking, cost models) belongs in Bind; only per-set
	// work belongs inside the plan's sequence.
	Bind func(view *InfoSnapshot) RoundPlan
	// Selector labels the round's candidate counter
	// (`sched_candidates_total{selector=...}`). The blueprint agents set
	// it to their configured selector kind; empty means "custom".
	Selector string
}

// RoundPlan is a blueprint's Resource Selector, fused Planner +
// Performance Estimator and pruning bound, bound to one round's
// information view.
type RoundPlan struct {
	// Sets streams the candidate resource sets: host chains for the
	// data-parallel blueprint, single machines and ordered
	// producer/consumer pairs for the pipeline one. The enumeration order
	// is the tie-break order of the reduce, so it must be deterministic,
	// and a yielded set is owned by the Coordinator afterwards: the
	// sequence must not reuse its backing array.
	Sets iter.Seq[[]*grid.Host]
	// Evaluate plans one set and scores the plan under the user's
	// metric, returning the evaluated Candidate (lower Score is better)
	// or ok=false when the set is infeasible. It is called concurrently
	// for distinct sets, so it must not mutate shared state.
	Evaluate func(set []*grid.Host) (c Candidate, ok bool)
	// Bound, when non-nil, is a cheap bound on the best score any plan
	// over a set can reach. The round skips a set whose bound already
	// exceeds the best score seen, so the bound must never overestimate
	// Evaluate's score, rounding included: then a pruned set could not
	// have won. Rounds that must list every feasible candidate, such as
	// rankings, leave it nil.
	Bound func(set []*grid.Host) float64
	// Truncated, when non-nil, reports after Sets is drained how many
	// sets a cap (userspec.MaxResourceSets) cut from the enumeration;
	// capped is false when it ran to completion. A capped round emits an
	// EvTruncated trace event and counts sched_selector_truncated_total.
	// Nil means the enumeration is never capped.
	Truncated func() (dropped int, capped bool)
}

// Coordinator owns the generic AppLeS scheduling round. It is configured
// once per agent (information source, selector, observability) and
// reused every round; the zero value is not useful — an agent
// constructor builds it.
type Coordinator struct {
	info Information

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

// Information returns the coordinator's underlying information source
// (not the per-round snapshot).
func (c *Coordinator) Information() Information { return c.info }

// evaluateRound runs the blueprint round: resolve the information view,
// bind the round's plan, stream candidate sets off it, evaluate
// them (inline, or across a worker pool on large pools), and reduce
// deterministically. It returns the feasible candidates in enumeration
// order plus the number of sets considered.
//
// The round proceeds in three steps:
//
//  1. snapshot the information pool for the filtered hosts, so every
//     availability/bandwidth/latency value is resolved exactly once
//     (large pools freeze per-link values and compose pairs on demand);
//  2. consume the selector's sequence as it is produced — inline for
//     pools up to lazySnapshotThreshold hosts, through a GOMAXPROCS
//     worker pool fed by the producing goroutine above it — planning and
//     estimating each set against the immutable snapshot; the full
//     candidate list is never materialized;
//  3. merge worker results and reduce in enumeration-index order, which
//     makes the outcome independent of goroutine interleaving: the same
//     candidates are feasible with the same scores, so the eventual
//     (score, index) minimum is the one the sequential loop would have
//     picked.
//
// When the round supplies a bound, evaluation additionally tracks the
// best score seen so far (shared across workers) and skips sets whose
// lower bound already exceeds it. The bound never overestimates, so a
// pruned set could not have won; pruning only reduces how many sets are
// planned and returned.
//
// A non-nil view is the SchedService's injection point: an externally
// resolved frozen information view (typically a cache-shared snapshot)
// that replaces the round's own freeze. An injected view built by
// roundSnapshot over the same pool yields bit-identical decisions,
// since the view only changes who froze the values, never the values
// themselves.
func (c *Coordinator) evaluateRound(r Round, view *InfoSnapshot) ([]Candidate, int, error) {
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
	plan := r.Bind(view)
	selSpan.End()

	bound, evaluate := plan.Bound, plan.Evaluate
	var incumbent *bestScore
	if bound != nil {
		incumbent = newBestScore()
	}

	// evalOne plans and estimates candidate set i (0-based enumeration
	// index); it is called concurrently for distinct sets.
	evalOne := func(i int, set []*grid.Host) (Candidate, bool) {
		if incumbent != nil {
			lb := bound(set)
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
		cand, ok := evaluate(set)
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
				Hosts: cand.names(), Predicted: cand.PredictedTotal, Score: cand.Score})
		}
		if incumbent != nil {
			incumbent.update(cand.Score)
		}
		return cand, true
	}

	// Fan-out follows the pool size, on the same boundary that picks the
	// snapshot's route policy. Up to lazySnapshotThreshold hosts sets are evaluated
	// inline: the exhaustive 8-host round (bench fig2-round) and the
	// 64-tenant service traffic (service-mixed) lose more to channel
	// hand-off than workers win back. Above it GOMAXPROCS workers let
	// the producer's selector chain overlap with evaluation, which the
	// greedy 2048-host rounds (grid-2048, sense-2048) need. Inline rounds
	// also emit trace events and prune in enumeration order, so their
	// traces and CandidatesPlanned are reproducible.
	workers := 1
	if len(r.Pool) > lazySnapshotThreshold {
		workers = runtime.GOMAXPROCS(0)
	}
	planSpan := stages.Start(round, obs.StagePlanEstimate)
	cands, considered := runStreamed(plan.Sets, workers, evalOne)
	planSpan.End()

	if observing {
		if met != nil {
			met.candidates(r.Selector).Add(uint64(considered))
		}
		if plan.Truncated != nil {
			if dropped, capped := plan.Truncated(); capped {
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
				tr.Emit(obs.Event{Round: round, Type: obs.EvWinner, Hosts: w.names(),
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
