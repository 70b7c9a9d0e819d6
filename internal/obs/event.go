package obs

// EventType tags one decision step of a scheduling round.
type EventType string

// The event vocabulary. One Coordinator round emits, in order: one
// EvSnapshot; one summary EvPruned when the round's plan skipped sets
// before chaining them (an exhaustive winner-only round does); an
// EvCandidate / EvPruned / EvInfeasible per set the plan yields
// (emission order follows evaluation order, so it is the enumeration
// order only under sequential evaluation); then one EvWinner. EvReschedule and EvWaitOrRun wrap whole rounds: they
// record the policy verdicts of Section 3.2.
const (
	// EvSnapshot: the round's information snapshot was built — Pool
	// hosts, Pairs ordered host pairs, and Queries calls actually issued
	// to the underlying information source (the batched route path
	// resolves each link once, so Queries < Pairs on shared links).
	EvSnapshot EventType = "snapshot"
	// EvCandidate: one resource set was planned and estimated. Index is
	// its 1-based position in enumeration order; Predicted is the
	// estimator's total seconds (T_i); Score is the user-metric
	// objective (lower is better).
	EvCandidate EventType = "candidate"
	// EvPruned: a resource set was skipped because its lower bound
	// (Bound) already exceeded the best score seen so far (Incumbent).
	// Both are in score units: seconds under min-time, cost under
	// min-cost, and negated speedups under max-speedup. A summary
	// EvPruned (no Index, no Hosts) stands for the Pruned sets the
	// round's plan skipped before chaining them: Bound is the least of
	// their bounds and Incumbent the seed, the exact score of a set the
	// round does plan, that every one of them strictly exceeds.
	EvPruned EventType = "pruned"
	// EvInfeasible: the planner rejected the set (e.g. aggregate memory
	// cannot hold the problem).
	EvInfeasible EventType = "infeasible"
	// EvWinner: the round reduced to its decision — the winning hosts,
	// score, and predicted time, plus how many sets were considered and
	// how many produced feasible plans.
	EvWinner EventType = "winner"
	// EvReschedule: a mid-run redistribution checkpoint. Verdict is
	// "migrate" or "keep"; Reason explains a "keep" (hysteresis,
	// migration cost, or a failed re-schedule).
	EvReschedule EventType = "reschedule"
	// EvWaitOrRun: the dedicated-offer comparison. Verdict is "wait" or
	// "run"; Shared and Dedicated carry both predicted totals.
	EvWaitOrRun EventType = "wait-or-run"
	// EvSpan: one timed stage of a round closed — Stage names the phase
	// (see the Stage* constants) and Seconds its wall-time. Spans emit at
	// Span.End, so within a sequentially evaluated round their order is
	// pinned: snapshot, select, plan_estimate (after the candidate
	// events), reduce (after the winner event).
	EvSpan EventType = "span"
	// EvTruncated: the Resource Selector capped its enumeration (e.g.
	// MaxResourceSets) — Considered is how many sets were emitted and
	// Dropped how many the cap cut. Without this event a capped round is
	// indistinguishable from one that genuinely had fewer candidates.
	EvTruncated EventType = "selector_truncated"
	// EvTenantRound: one multi-tenant service round completed. Tenant
	// names the registered client, Round is the tenant-local completed
	// round sequence, Hosts/Predicted the decision, SharedSnap whether
	// the round reused a cache-shared snapshot, and Seconds the queue +
	// evaluation wall-time.
	EvTenantRound EventType = "tenant_round"
	// EvDeltaRound: a ReschedSession round completed. Changed counts
	// pool hosts whose availability differs from the previous round,
	// Rescored how many candidate sets were re-planned, Pruned how many a
	// bounded round skipped by its metric bound, Considered the frozen
	// universe size, and Carried whether the round was quiescent (no
	// input changed, so the previous outcome was returned as-is).
	// Hosts/Predicted/Score describe the winner, as in EvWinner.
	EvDeltaRound EventType = "delta_round"
	// EvAudit: the audit engine joined a decision's prediction with its
	// observed actual (Verdict "join": Tenant, Predicted, Actual, and
	// Reason carrying "selector/host-class"), or a drift detector
	// alarmed (Verdict "drift": Reason names the degraded entity, e.g.
	// "tenant/t1" or "series/cpu/alpha1").
	EvAudit EventType = "audit"
)

// Event is one structured record in a decision trace. It is a flat
// union: every field is tagged omitempty and only the fields meaningful
// for the Type are set (Index is 1-based and Round starts at 1 so zero
// always means "not applicable"). The JSONL schema is documented in
// DESIGN.md §10; the golden-file test in internal/core pins it.
type Event struct {
	// Seq is the sink-assigned emission sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// Round numbers the scheduling round within one Coordinator lineage,
	// starting at 1. Zero for events outside a round (verdict events).
	Round uint64    `json:"round,omitempty"`
	Type  EventType `json:"type"`

	// Snapshot fields. SharedSnap marks a round that evaluated against a
	// shared frozen view from the service's snapshot cache instead of
	// freezing its own (the stats then describe the original build).
	Pool       int  `json:"pool,omitempty"`
	Pairs      int  `json:"pairs,omitempty"`
	Queries    int  `json:"queries,omitempty"`
	SharedSnap bool `json:"shared_snap,omitempty"`

	// Tenant names the multi-tenant service client the event belongs to
	// (EvTenantRound, and service-side verdict events).
	Tenant string `json:"tenant,omitempty"`

	// Candidate / pruned / winner fields.
	Index      int      `json:"index,omitempty"`
	Hosts      []string `json:"hosts,omitempty"`
	Predicted  float64  `json:"predicted,omitempty"`
	Score      float64  `json:"score,omitempty"`
	Bound      float64  `json:"bound,omitempty"`
	Incumbent  float64  `json:"incumbent,omitempty"`
	Considered int      `json:"considered,omitempty"`
	Planned    int      `json:"planned,omitempty"`
	// Dropped is how many candidate sets a selector cap cut from the
	// enumeration (EvTruncated only).
	Dropped int `json:"dropped,omitempty"`

	// Delta-round fields (EvDeltaRound; Pruned also on a summary
	// EvPruned). Changed is the number of pool hosts whose availability
	// changed since the previous session round, Rescored how many
	// candidate sets were re-planned, Pruned how many a bounded round
	// skipped by its metric bound, and Carried whether the round was
	// quiescent and returned the previous outcome.
	Changed  int  `json:"changed,omitempty"`
	Rescored int  `json:"rescored,omitempty"`
	Pruned   int  `json:"pruned,omitempty"`
	Carried  bool `json:"carried,omitempty"`

	// Span fields. Stage names the timed phase of the round; Seconds is
	// its measured wall-time under the span's clock.
	Stage   string  `json:"stage,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`

	// Actual is the observed execution time joined against Predicted
	// (EvAudit only).
	Actual float64 `json:"actual,omitempty"`

	// Verdict fields (reschedule / wait-or-run / audit).
	Verdict   string  `json:"verdict,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Current   float64 `json:"current,omitempty"`
	Fresh     float64 `json:"fresh,omitempty"`
	Savings   float64 `json:"savings,omitempty"`
	MigCost   float64 `json:"mig_cost,omitempty"`
	Shared    float64 `json:"shared,omitempty"`
	Dedicated float64 `json:"dedicated,omitempty"`
}

// Tracer receives decision-trace events. Implementations must be safe
// for concurrent Emit calls: parallel evaluation workers trace from
// multiple goroutines. The sink assigns Event.Seq; emitters leave it 0.
//
// Everywhere the scheduler carries a Tracer, nil means "off" and is
// guarded by a single pointer check before any event is built, so the
// disabled path does no tracing work at all.
type Tracer interface {
	Emit(Event)
}

// TracerFunc adapts a function to Tracer. The function itself must be
// safe for concurrent calls.
type TracerFunc func(Event)

// Emit implements Tracer.
func (f TracerFunc) Emit(e Event) { f(e) }
