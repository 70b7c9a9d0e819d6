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
// source: GOMAXPROCS worker pool, no pruning, exhaustive selection.
func newCoordConfig(info Information) coordConfig {
	return coordConfig{Coordinator: Coordinator{info: info, rounds: new(atomic.Uint64)}}
}

// AgentOption configures a blueprint agent's Coordinator at construction.
// The same options apply to every blueprint sharing the coordinator —
// NewAgent, NewPipelineAgent, and NewCoordinator all accept them:
//
//	a, err := core.NewAgent(tp, tpl, spec, info,
//		core.WithParallelism(8), core.WithPruning(true))
type AgentOption func(*coordConfig)

// WithSpillFactor sets the estimator's out-of-memory penalty multiplier
// (default 25, matching jacobi.Config). It replaces writing the exported
// Agent.SpillFactor field; the pipeline blueprint, which has no spill
// model, ignores it.
func WithSpillFactor(f float64) AgentOption {
	return func(c *coordConfig) {
		if f > 0 {
			c.spillFactor = f
		}
	}
}

// WithParallelism bounds the candidate-evaluation worker pool. n <= 0
// (the default) sizes the pool to GOMAXPROCS; n == 1 forces sequential
// evaluation. Regardless of n, the chosen schedule is bit-identical to
// the sequential path: results are reduced by (score, candidate index),
// so goroutine interleaving cannot change the decision.
func WithParallelism(n int) AgentOption {
	return func(c *coordConfig) { c.parallelism = n }
}

// WithPruning enables best-so-far pruning: workers share the incumbent
// best score through an atomic and skip candidate sets whose lower bound
// already exceeds it, saving the plan + estimate work. The bound is
// conservative, so pruning never changes the selected schedule — only
// Schedule.CandidatesPlanned may be lower (pruned sets are never planned,
// and under parallel evaluation how many prune depends on timing).
// Pruning applies to rounds that supply a sound bound (the Jacobi
// blueprint under the MinExecutionTime metric); other rounds evaluate
// every set.
func WithPruning(on bool) AgentOption {
	return func(c *coordConfig) { c.pruning = on }
}

// WithSelector picks the Resource Selector strategy the blueprint
// agents bind each scheduling round: exhaustive subsets (the default,
// faithful to the paper but walled at 2^pool), or one of the heuristic
// family — greedy marginal gain, width-W beam search, LP-seeded GA —
// that scales candidate enumeration to 100–4096-host grids. Unknown
// kinds fail agent construction. Every heuristic is deterministic for a
// fixed SelectorSpec, so scheduling stays reproducible.
func WithSelector(spec SelectorSpec) AgentOption {
	return func(c *coordConfig) { c.selector = spec }
}

// WithTracer attaches a decision-trace sink to the Coordinator: every
// scheduling round emits structured events for the snapshot built, each
// candidate evaluated/pruned/rejected, and the winner selected, plus
// reschedule and wait-or-run verdicts. The tracer must be safe for
// concurrent Emit calls (parallel workers trace from multiple
// goroutines; obs.JSONLTracer and obs.Collector both are). nil leaves
// tracing off — the default, costing one pointer check per site.
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
