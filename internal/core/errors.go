package core

import "errors"

// Sentinel errors for the agent's failure modes. Call sites wrap these
// with %w and context, so callers distinguish outcomes with errors.Is
// instead of string matching:
//
//	if errors.Is(err, core.ErrNoFeasibleHosts) { relax the user spec }
//	if errors.Is(err, core.ErrNoFeasiblePlan)  { shrink the problem }
//	if errors.Is(err, core.ErrBadTemplate)     { fix the HAT }
//
// The facade re-exports every one of them.
var (
	// ErrNoFeasibleHosts: the user specification filters out every host
	// in the topology, so there is nothing to schedule onto.
	ErrNoFeasibleHosts = errors.New("no feasible hosts")

	// ErrNoFeasiblePlan: candidate resource sets were enumerated but none
	// produced a feasible plan (e.g. aggregate memory cannot hold the
	// problem, or no pipeline mapping works).
	ErrNoFeasiblePlan = errors.New("no feasible plan")

	// ErrBadTemplate: the application template does not fit the agent
	// blueprint it was handed to (wrong paradigm, missing tasks or comm
	// edges, or failed validation).
	ErrBadTemplate = errors.New("bad application template")

	// ErrSessionUniverse: the agent's candidate universe depends on
	// information (a greedy or beam selector, a pool of more than 12
	// hosts, or a MaxResourceSets cap below every subset), so a
	// ReschedSession would freeze sets that go stale as forecasts drift.
	// Schedule with fresh rounds instead, as Rescheduler does.
	ErrSessionUniverse = errors.New("candidate universe depends on information")

	// ErrQueueFull: the multi-tenant service's admission queue is at its
	// configured depth; the submission was rejected without queueing.
	// Back off and retry — nothing was scheduled.
	ErrQueueFull = errors.New("scheduling queue full")

	// ErrServiceClosed: the multi-tenant service has shut down; no new
	// tenants or rounds are accepted.
	ErrServiceClosed = errors.New("scheduling service closed")
)
