package obs

import (
	"runtime"
	"time"
)

// runtimeCollector owns the serving-process gauges. Collection is
// pull-driven: it runs as an OnCollect hook, so both exposition paths
// refresh the gauges immediately before rendering, there is no sampling
// goroutine to manage, and an idle registry costs nothing.
type runtimeCollector struct {
	start time.Time

	goroutines *Gauge
	heap       *Gauge
	gcPause    *Gauge
	gcCycles   *Gauge
	uptime     *Gauge
}

// EnableRuntime adds the serving-process self-description gauges
// (go_goroutines, go_heap_alloc_bytes, go_gc_pause_seconds_total,
// go_gc_cycles_total, process_uptime_seconds) to the registry; they
// refresh on every WriteTo / WritePrometheus. Off by default so
// registries built for deterministic tests and golden dumps stay free
// of process-dependent series; obshttp.Handler enables it, since a
// registry serving /metrics describes a live process by definition.
// Idempotent; the first call pins the uptime epoch.
func (m *Metrics) EnableRuntime() {
	rc := &runtimeCollector{
		start:      time.Now(),
		goroutines: m.Gauge(MetricGoroutines),
		heap:       m.Gauge(MetricHeapBytes),
		gcPause:    m.Gauge(MetricGCPauseTotal),
		gcCycles:   m.Gauge(MetricGCCycles),
		uptime:     m.Gauge(MetricProcessUptime),
	}
	if m.rt.CompareAndSwap(nil, rc) {
		m.OnCollect(rc.collect)
	}
}

// collect refreshes the runtime gauges.
func (rc *runtimeCollector) collect() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc.goroutines.Set(float64(runtime.NumGoroutine()))
	rc.heap.Set(float64(ms.HeapAlloc))
	rc.gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
	rc.gcCycles.Set(float64(ms.NumGC))
	rc.uptime.Set(time.Since(rc.start).Seconds())
}
