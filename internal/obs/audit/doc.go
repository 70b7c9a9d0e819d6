// Package audit closes the predict→observe→adapt loop: it joins every
// scheduling decision's predicted completion time with the subsequently
// observed actual, scores every NWS forecaster against a naive
// last-value baseline per measurement series, and watches both streams
// with Page-Hinkley drift detectors that flip a tenant or series into a
// degraded health state.
//
// The rest of the stack can trace, time, and persist every decision;
// this package is where the system finally checks whether a single
// prediction came true. Three ingestion surfaces feed one Engine:
//
//   - RecordPrediction / RecordActual join a decision's completion-time
//     estimate (captured from the coordinator's winner, via
//     core.WithAudit) with the measured execution time, keyed by an
//     engine-issued join key. Joined pairs land in per-(tenant,
//     selector, host-class) groups carrying signed bias, MAE, MAPE, and
//     a calibration histogram of predicted/actual ratios; predictions
//     whose actual never arrives expire after a TTL, and actuals with
//     no standing prediction count as orphaned — the bookkeeping
//     invariant joined+pending+expired == predictions issued holds at
//     every instant.
//
//   - ResidualSeries / ObserveResiduals score the NWS forecasters, one
//     call per sensor sample on a series resolved once: every ready
//     forecaster's standing one-step prediction is scored against the
//     sample, then the sample updates the series' naive last-value
//     baseline (nws.WithResiduals installs the hook; the bank's
//     currently selected forecaster is flagged so its error stream
//     drives the series' drift detector). ObserveResidual and
//     ObserveSample do the same one forecaster at a time, by name.
//     Per-forecaster skill is 1 - MAE_forecaster/MAE_naive: 1 is
//     perfect, 0 no better than carrying the last value forward,
//     negative worse.
//
//   - The same methods back the offline mode: nws.AuditStore
//     replays any mstore directory through fresh banks into an Engine,
//     so historical decisions and sensing runs are auditable long after
//     the process that made them exited.
//
// Everything surfaces through the existing observability stack: the
// sched_prediction_error_seconds histogram, nws_forecast_skill gauges,
// audit_* counters (obs metric names), EvAudit trace events, the
// obshttp /audit and /audit/series endpoints, and component health on
// /healthz. A nil *Engine is "off" everywhere — instrumented call
// sites reduce to one pointer check, so the audit-off hot path pays
// nothing.
package audit
