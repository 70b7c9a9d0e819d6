package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"apples/internal/obs"
)

// span is one timed interval of a traced run. Spans the benchmark times
// around a call into the program carry their start; spans whose
// duration is read from one of the program's own histograms (Source
// "program") only know that they lie inside their parent, so they take
// the parent's start.
type span struct {
	Workload string  `json:"workload"`
	Op       int     `json:"op"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_ms"`
	Dur      float64 `json:"dur_ms"`
	Source   string  `json:"src,omitempty"`
}

// tracer keeps the spans and counters of a traced run in memory until
// the run ends. A nil *tracer is off: every method is a no-op, so the
// untraced path pays one nil check per call site. A tracer is used from
// one goroutine.
type tracer struct {
	base   time.Time
	op     int
	spans  []span
	counts map[string]float64
	mem    runtime.MemStats
}

func newTracer() *tracer {
	// Room for a traced run's spans up front, so that growing the slice
	// does not show up in the allocation counts of the calls it wraps.
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16), counts: make(map[string]float64)}
}

func (t *tracer) now() float64 { return float64(time.Since(t.base).Nanoseconds()) / 1e6 }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.Dur = t.now() - s.Start
}

// reported adds a child of parent whose duration the program measured
// and returns its id.
func (t *tracer) reported(name string, parent int, ms float64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: t.spans[parent-1].Start, Dur: ms, Source: "program"})
	return len(t.spans)
}

// spanAt adds a span whose start and duration the caller measured on
// another clock, given in ms since the tracer's base.
func (t *tracer) spanAt(name string, parent int, start, dur float64) int {
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start, Dur: dur})
	return len(t.spans)
}

// add accumulates a named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

// allocs reads the process's cumulative heap allocation count and
// bytes. ReadMemStats stops the world, so the read is a "trace.probe"
// span under parent: its cost counts as tracing overhead, not against
// the layer being measured.
func (t *tracer) allocs(parent int) (objects, bytes float64) {
	sp := t.begin("trace.probe", parent)
	objects, bytes = t.heapAllocs()
	t.end(sp)
	return objects, bytes
}

// heapAllocs is allocs outside any span.
func (t *tracer) heapAllocs() (objects, bytes float64) {
	runtime.ReadMemStats(&t.mem)
	return float64(t.mem.Mallocs), float64(t.mem.TotalAlloc)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.Workload = workload
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreStages are the Coordinator round's stages, in round order.
var coreStages = []string{obs.StageSnapshot, obs.StageSelect, obs.StagePlanEstimate, obs.StageReduce}

// instruments are the program's own timers and counters. Only the
// traced instance of a workload switches them on; a nil *instruments
// is off.
type instruments struct {
	reg    *obs.Metrics
	stages *obs.StageTimer
	stage  []*obs.Histogram // per coreStages entry
	sweep  *obs.Histogram
	append *obs.Histogram
}

func newInstruments() *instruments {
	reg := obs.NewMetrics()
	in := &instruments{reg: reg, stages: obs.NewStageTimer(reg, nil, nil)}
	for _, s := range coreStages {
		in.stage = append(in.stage, reg.Histogram(obs.StageMetricName(s), nil))
	}
	in.sweep = reg.Histogram(obs.StageMetricName(obs.StageSweep), nil)
	in.append = reg.Histogram(obs.MetricStoreAppendSeconds, obs.StoreAppendBuckets)
	return in
}

// stageSums reads the running sum, in ms, of each Coordinator stage.
func (in *instruments) stageSums() (s [4]float64) {
	for i, h := range in.stage {
		s[i] = h.Sum() * 1e3
	}
	return s
}

// progTotals are the program-reported totals a phase differences.
type progTotals struct {
	stage       [4]float64 // ms
	sweepMS     float64
	sweeps      float64
	appendMS    float64
	appends     float64
	bankUpdates float64
	storeBytes  float64
}

func (in *instruments) totals() progTotals {
	if in == nil {
		return progTotals{}
	}
	return progTotals{
		stage:       in.stageSums(),
		sweepMS:     in.sweep.Sum() * 1e3,
		sweeps:      float64(in.sweep.Count()),
		appendMS:    in.append.Sum() * 1e3,
		appends:     float64(in.append.Count()),
		bankUpdates: float64(in.reg.Counter(obs.MetricBankUpdates).Value()),
		storeBytes:  float64(in.reg.Counter(obs.MetricStoreBytes).Value()),
	}
}

// minus returns the totals accumulated between b and a.
func (a progTotals) minus(b progTotals) progTotals {
	for i := range a.stage {
		a.stage[i] -= b.stage[i]
	}
	a.sweepMS -= b.sweepMS
	a.sweeps -= b.sweeps
	a.appendMS -= b.appendMS
	a.appends -= b.appends
	a.bankUpdates -= b.bankUpdates
	a.storeBytes -= b.storeBytes
	return a
}

// reportStages adds the four stage spans a round recorded between two
// stageSums readings as children of parent.
func (t *tracer) reportStages(parent int, before, after [4]float64) {
	for i, s := range coreStages {
		t.reported("core.stage."+s, parent, after[i]-before[i])
	}
}

// selfLayers are the layers a traced op's time is split across: the
// program's modules, the open-loop generator, the tracer's own probes,
// and "bench", the part of the op no span covers.
var selfLayers = []string{"sim", "nws", "mstore", "core", "jacobi", "session", "service", "gen", "trace", "bench"}

// layerOf maps a span name to its layer: the text before the first dot,
// with the root span "op" standing for the benchmark loop itself.
func layerOf(name string) string {
	if name == "op" {
		return "bench"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStats summarizes a traced run's spans: per name, the count and
// total duration; per layer, the total self time (a span's duration
// minus its children's); and the number and total duration of root ops.
type spanStats struct {
	count, total map[string]float64
	self         map[string]float64
	durs         map[string][]float64
	ops          float64
	opTotal      float64
}

func summarize(spans []span) spanStats {
	st := spanStats{count: map[string]float64{}, total: map[string]float64{},
		self: map[string]float64{}, durs: map[string][]float64{}}
	children := make([]float64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] += s.Dur
		}
	}
	for _, s := range spans {
		st.count[s.Name]++
		st.total[s.Name] += s.Dur
		st.durs[s.Name] = append(st.durs[s.Name], s.Dur)
		st.self[layerOf(s.Name)] += s.Dur - children[s.ID]
		if s.Parent == 0 {
			st.ops++
			st.opTotal += s.Dur
		}
	}
	return st
}

// meanOf returns the mean duration of the spans called name (0 if none).
func (st spanStats) meanOf(name string) float64 { return ratio(st.total[name], st.count[name]) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes every per-layer metric from a traced phase: its
// spans and counters, the difference of the program-reported totals
// across the phase, and the mean op latency of the untraced blocks
// interleaved with it.
func layerMetrics(t *tracer, d progTotals, plainMeanMS float64) (map[string]float64, []string) {
	st := summarize(t.spans)
	c := t.counts
	ops := st.ops
	rounds := st.count["core.schedule"]
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.Name] = 0 // a layer the workload never calls
	}
	var notes []string

	m["sim.events_per_op"] = ratio(c["sim.events"], ops)
	m["sim.run_until_ms"] = st.meanOf("sim.run_until")
	m["jacobi.actuate_ms"] = st.meanOf("jacobi.actuate")
	m["jacobi.events_per_run"] = ratio(c["jacobi.events"], st.count["jacobi.actuate"])
	m["nws.sweep_ms"] = ratio(c["nws.sweep_ms"], c["nws.sweep_runs"])
	m["nws.samples_per_op"] = ratio(d.bankUpdates, ops)
	m["nws.stage.sensor_sweep_ms"] = ratio(d.sweepMS, d.sweeps)
	m["mstore.bytes_per_op"] = ratio(d.storeBytes, ops)
	m["mstore.segments_per_1k_ops"] = 1000 * ratio(c["mstore.segments"], ops)
	m["mstore.append_us"] = 1000 * ratio(d.appendMS, d.appends)

	m["core.schedule_ms"] = st.meanOf("core.schedule")
	m["core.candidates_per_round"] = ratio(c["core.candidates"], rounds)
	m["core.allocs_per_round"] = ratio(c["core.allocs"], rounds)
	m["core.bytes_per_round"] = ratio(c["core.bytes"], rounds)
	staged := 0.0
	for i, s := range coreStages {
		v := ratio(d.stage[i], rounds)
		m["core.stage."+s+"_ms"] = v
		staged += v
	}
	if rounds > 0 {
		m["core.stage.unaccounted_ms"] = m["core.schedule_ms"] - staged
	}

	sessRounds := st.count["session.round"]
	m["session.round_ms"] = st.meanOf("session.round")
	m["session.rescored_ratio"] = ratio(c["session.rescored"], c["session.considered"])
	m["session.carried_ratio"] = ratio(c["session.carried"], sessRounds)
	m["session.changed_hosts_per_round"] = ratio(c["session.changed_hosts"], sessRounds)
	m["session.allocs_per_round"] = ratio(c["session.allocs"], sessRounds)

	for _, q := range []float64{0.5, 0.95} {
		if w := st.durs["service.queue_wait"]; len(w) > 0 {
			v, err := percentile(w, q)
			if err != nil {
				notes = append(notes, "service.queue_wait: "+err.Error())
			}
			m[fmt.Sprintf("service.queue_wait_p%g_ms", 100*q)] = v
		}
	}
	m["service.eval_ms.greedy"] = ratio(c["service.eval_ms.greedy"], c["service.rounds.greedy"])
	m["service.eval_ms.exhaustive"] = ratio(c["service.eval_ms.exhaustive"], c["service.rounds.exhaustive"])
	m["service.shared_ratio"] = ratio(c["service.shared"], c["service.rounds"])
	m["service.queue_depth_max"] = c["service.queue_depth_max"]
	m["service.rejected"] = c["service.rejected"]

	m["audit.joined_ratio"] = ratio(c["audit.joined"], c["audit.rounds"])
	m["audit.pending"] = c["audit.pending"]

	if late := st.durs["gen.late"]; len(late) > 0 {
		v, err := percentile(late, 0.99)
		if err != nil {
			notes = append(notes, "gen.late: "+err.Error())
		}
		m["gen.late_p99_ms"] = v
		m["gen.samples"] = float64(len(late))
	}

	opMean := ratio(st.opTotal, ops)
	for _, l := range selfLayers {
		m["self."+l+"_ms"] = ratio(st.self[l], ops)
	}
	m["op.mean_ms"] = opMean
	m["trace.accounted_pct"] = 100 * ratio(st.opTotal-st.self["bench"], st.opTotal)
	m["trace.overhead_pct"] = 100 * (ratio(opMean, plainMeanMS) - 1)
	return m, notes
}
