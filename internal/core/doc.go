// Package core implements the AppLeS agent — the paper's central
// contribution (Section 4). An agent is organized exactly as Figure 1
// describes: a Coordinator drives four subsystems over a shared
// information pool.
//
// The Coordinator itself is generic (coordinator.go): it owns the whole
// scheduling round — per-round information snapshot, evaluation of the
// candidate resource sets (inline on pools up to 64 hosts, fanned out to
// GOMAXPROCS workers above), selection-preserving pruning on rounds
// that supply a bound, and the deterministic (score, index) reduce — while each
// application paradigm hands it a Round whose Bind returns the round's
// plan: its candidate sets, a fused planner/estimator and, optionally,
// a pruning bound. The
// Jacobi2D Agent (agent.go) and the 3D-REACT PipelineAgent (pipeline.go)
// are both thin instantiations of this one blueprint.
//
//   - the Resource Selector (selector.go) filters the metacomputer through
//     the User Specifications and enumerates candidate resource sets,
//     ordered and pruned by an application-specific notion of resource
//     distance;
//   - the Planner computes a resource-dependent schedule for each
//     candidate set — for the Jacobi2D blueprint, a strip decomposition
//     that balances T_i = A_i*P_i + C_i using forecast availability and
//     bandwidth;
//   - the Performance Estimator evaluates each candidate schedule under
//     the user's own metric, including memory-spill penalties the cost
//     model would otherwise hide. For the Jacobi2D blueprint both are
//     one fused, allocation-free strip kernel (sessionsolver.go) that
//     every scheduling path shares;
//   - the Actuator (agent.go) implements the best schedule on the target
//     resource management system — here, the simulated metacomputer.
//
// The information pool is abstracted by the Information interface
// (info.go), with implementations backed by the Network Weather Service,
// by a perfect oracle, and by static compile-time assumptions; the latter
// two exist for the prediction-quality ablation the paper's Section 3.6
// motivates ("a schedule is only as good as the accuracy of its underlying
// predictions").
package core
