package core

import (
	"sync/atomic"

	"apples/internal/obs"
)

// coordConfig is the construction-time target of AgentOption: the
// Coordinator's evaluation-engine settings plus the estimator knobs that
// only some blueprints consume (the pipeline blueprint has no memory
// model, so it ignores spillFactor).
type coordConfig struct {
	Coordinator
	// spillFactor, when > 0, overrides the Jacobi estimator's
	// out-of-memory penalty multiplier.
	spillFactor float64
}

// newCoordConfig returns the default configuration over an information
// source: exhaustive selection, observability off.
func newCoordConfig(info Information) coordConfig {
	return coordConfig{Coordinator: Coordinator{info: info, rounds: new(atomic.Uint64)}}
}

// AgentOption configures a blueprint agent's Coordinator at construction.
// The same options apply to every blueprint sharing the coordinator —
// NewAgent and NewPipelineAgent both accept them:
//
//	a, err := core.NewAgent(tp, tpl, spec, info,
//		core.WithSpillFactor(30), core.WithMetrics(reg))
type AgentOption func(*coordConfig)

// WithSpillFactor sets the Jacobi blueprint's out-of-memory penalty: a
// strip that needs more memory than its host has is slowed by
// 1 + s·(f − 1), s its spilled share (default f = 25, matching
// jacobi.Config; f ≤ 0 keeps the default). Below 1 a spilled strip would
// price faster than the no-spill floor every metric bound rests on, so
// such an agent prunes nothing: its rounds plan every candidate set and
// its ReschedSession rounds are unbounded. The pipeline blueprint, which
// has no spill model, ignores it.
func WithSpillFactor(f float64) AgentOption {
	return func(c *coordConfig) {
		if f > 0 {
			c.spillFactor = f
		}
	}
}

// WithSelector picks the Resource Selector strategy the blueprint
// agents bind each scheduling round: exhaustive subsets (the default,
// faithful to the paper but walled at 2^pool), or a heuristic — greedy
// marginal gain or width-W beam search — that scales candidate
// enumeration to 100–4096-host grids. Unknown kinds fail agent
// construction. Every heuristic is deterministic for a fixed
// SelectorSpec, so scheduling stays reproducible.
func WithSelector(spec SelectorSpec) AgentOption {
	return func(c *coordConfig) { c.selector = spec }
}

// WithTracer attaches a decision-trace sink to the Coordinator: every
// scheduling round emits structured events for the snapshot built, each
// candidate evaluated/pruned/rejected, and the winner selected, plus
// reschedule and wait-or-run verdicts. The tracer must be safe for
// concurrent Emit calls (concurrent rounds, and the parallel workers of
// pools above 64 hosts, trace from multiple goroutines; obs.JSONLTracer
// and obs.Collector both are). nil leaves tracing off — the default,
// costing one pointer check per site.
func WithTracer(t obs.Tracer) AgentOption {
	return func(c *coordConfig) { c.tracer = t }
}

// WithStageTiming attaches a stage timer to the Coordinator: every
// scheduling round records per-stage wall-time spans — snapshot build,
// resource selection, the plan+estimate fan-out, and the reduce/winner
// step, plus actuation in Run — into the timer's
// `sched_stage_seconds{stage="..."}` histograms. A timer built with a
// tracer additionally emits each span as an EvSpan trace event on
// close. nil leaves stage timing off (the default: one pointer check
// per stage).
func WithStageTiming(st *obs.StageTimer) AgentOption {
	return func(c *coordConfig) { c.stages = st }
}

// WithMetrics registers the Coordinator's round metrics in the given
// registry — round and snapshot-build latency histograms plus counters
// for rounds run and candidates evaluated/pruned/infeasible (the
// sched_* metric names in package obs). Handles are resolved here, once, so the
// instrumented round performs only atomic updates; nil leaves metrics
// off.
func WithMetrics(m *obs.Metrics) AgentOption {
	return func(c *coordConfig) {
		if m == nil {
			c.met = nil
			return
		}
		c.met = &roundMetrics{
			rounds:          m.Counter(obs.MetricRounds),
			evaluated:       m.Counter(obs.MetricCandidatesEvaluated),
			pruned:          m.Counter(obs.MetricCandidatesPruned),
			infeasible:      m.Counter(obs.MetricCandidatesInfeasible),
			truncated:       m.Counter(obs.MetricSelectorTruncated),
			deltaRatio:      m.Gauge(obs.MetricRoundDeltaRatio),
			rescored:        m.Counter(obs.MetricCandidatesRescored),
			roundLatency:    m.Histogram(obs.MetricRoundSeconds, nil),
			snapshotLatency: m.Histogram(obs.MetricSnapshotSeconds, nil),
			reg:             m,
		}
	}
}
