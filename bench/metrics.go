package main

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression (absolute for error_rate, whose median
// is 0); per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// gated are the end-to-end metrics every workload reports on every run;
// they are the ones BENCHMARK.json lists. Their bounds are wide because
// the box is shared: even scaled to the machine alone at its reference
// speed (calib.go), runs a few minutes apart differ by up to 15% (see
// README.md).
var gated = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_mean_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// ungated are end-to-end metrics `run` prints and `compare` gates but
// BENCHMARK.json leaves out. The tail percentiles move with the bursts in
// which the hypervisor takes the vCPUs away, which scaling by the stolen
// share over half a second cannot undo: p95 of fig2-round read 3.3-3.9 ms
// in quiet runs and 5.6-6.7 ms in runs with 15-20% of the time stolen.
// latency_p99_ms also needs 1000 samples, which grid-2048 does not
// reach. error_rate is 0 on a healthy run, and any
// failure already makes the run incorrect. The last three are functions
// of the seed alone (grid-2048's predicted time does not even move with
// the seed); app_time_s and prediction_mape need actuation, which only
// fig2-round does.
var ungated = []metricDef{
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"error_rate", "ratio", "lower", 0.001},
	{"predicted_time_s", "s", "lower", 0.05},
	{"app_time_s", "s", "lower", 0.05},
	{"prediction_mape", "ratio", "lower", 0.05},
}

// perLayer are the traced run's metrics. Every workload reports every
// one; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"sim.events_per_op", "count", "lower", 0},
	{"sim.run_until_ms", "ms", "lower", 0},
	{"jacobi.actuate_ms", "ms", "lower", 0},
	{"jacobi.events_per_run", "count", "lower", 0},
	{"nws.sweep_ms", "ms", "lower", 0},
	{"nws.samples_per_op", "count", "lower", 0},
	{"nws.stage.sensor_sweep_ms", "ms", "lower", 0},
	{"mstore.bytes_per_op", "bytes", "lower", 0},
	{"mstore.segments_per_1k_ops", "count", "lower", 0},
	{"mstore.append_us", "us", "lower", 0},
	{"core.schedule_ms", "ms", "lower", 0},
	{"core.candidates_per_round", "count", "lower", 0},
	{"core.allocs_per_round", "count", "lower", 0},
	{"core.bytes_per_round", "bytes", "lower", 0},
	{"core.stage.snapshot_ms", "ms", "lower", 0},
	{"core.stage.select_ms", "ms", "lower", 0},
	{"core.stage.plan_estimate_ms", "ms", "lower", 0},
	{"core.stage.reduce_ms", "ms", "lower", 0},
	{"core.stage.unaccounted_ms", "ms", "lower", 0},
	{"session.round_ms", "ms", "lower", 0},
	{"session.rescored_ratio", "ratio", "lower", 0},
	{"session.carried_ratio", "ratio", "higher", 0},
	{"session.changed_hosts_per_round", "count", "lower", 0},
	{"session.allocs_per_round", "count", "lower", 0},
	{"service.queue_wait_p50_ms", "ms", "lower", 0},
	{"service.queue_wait_p95_ms", "ms", "lower", 0},
	{"service.eval_ms.greedy", "ms", "lower", 0},
	{"service.eval_ms.exhaustive", "ms", "lower", 0},
	{"service.shared_ratio", "ratio", "higher", 0},
	{"service.queue_depth_max", "count", "lower", 0},
	{"service.rejected", "count", "lower", 0},
	{"audit.joined_ratio", "ratio", "higher", 0},
	{"audit.pending", "count", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.samples", "count", "higher", 0},
	{"self.sim_ms", "ms", "lower", 0},
	{"self.nws_ms", "ms", "lower", 0},
	{"self.mstore_ms", "ms", "lower", 0},
	{"self.core_ms", "ms", "lower", 0},
	{"self.jacobi_ms", "ms", "lower", 0},
	{"self.session_ms", "ms", "lower", 0},
	{"self.service_ms", "ms", "lower", 0},
	{"self.gen_ms", "ms", "lower", 0},
	{"self.trace_ms", "ms", "lower", 0},
	{"self.bench_ms", "ms", "lower", 0},
	{"op.mean_ms", "ms", "lower", 0},
	{"trace.accounted_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metricByName finds a metric definition in any of the three lists.
func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{gated, ungated, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
