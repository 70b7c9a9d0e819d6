// Package obs is the zero-dependency decision-trace and metrics layer
// for the AppLeS round. The paper's argument is that a schedule is only
// as good as the dynamic information and estimates behind it; obs makes
// those estimates inspectable after the fact instead of leaving each
// Coordinator round a black box.
//
// Three independent surfaces:
//
//   - Tracer receives one structured Event per decision step: the
//     information snapshot built for the round, every candidate
//     evaluated (resource set, predicted time, score), every candidate
//     pruned (lower bound vs incumbent), the winner selected, the
//     reschedule / wait-or-run verdicts, and the stage spans described
//     below. Sinks: JSONLTracer writes one JSON object per line;
//     Collector buffers events in memory for tests and golden files;
//     RingTracer keeps a bounded window of the most recent events for
//     live inspection.
//
//   - Metrics is a registry of atomic counters, gauges, and fixed-bucket
//     histograms. Handles are resolved once at construction and updated
//     with single atomic operations, so the scheduling and sensing hot
//     paths stay allocation-free while instrumented. Histograms answer
//     Quantile(q) by bucket interpolation, and the whole registry
//     renders either as a human dump (WriteTo) or as Prometheus text
//     exposition (WritePrometheus), with NameWithLabels-encoded keys
//     parsed back into natively labeled series.
//
//   - StageTimer times the phases of a scheduling round (snapshot,
//     select, plan_estimate, reduce, actuate) and the NWS sensor sweep.
//     Each closed Span lands one observation in the stage-labeled
//     sched_stage_seconds histogram family and, when a tracer is
//     attached, one EvSpan event inline with the decision events it
//     times. The clock is injectable so simulated runs pin span
//     durations deterministically in golden traces.
//
// Package obshttp serves the live counterparts over HTTP: /metrics
// (Prometheus), /trace/recent (the ring as JSON), /healthz, and pprof.
//
// All surfaces are optional everywhere they are threaded: a nil Tracer,
// Metrics, or StageTimer handle is a single pointer check on the hot
// path, so disabled observability costs nothing measurable (the bench
// module reports the enabled cost as trace.overhead_pct). Every
// implementation in this package is safe for concurrent use — parallel
// candidate-evaluation workers emit events and bump counters from
// multiple goroutines.
package obs
