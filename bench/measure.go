package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// An untraced run builds its workload at least four times: the
	// reference, the measured instance, and at least one discarded
	// instance before the measured phase and one after it, more while
	// each half of setupBudget lasts, up to maxSetups builds. setup_s is
	// the median build time, so one slow build does not move it, and
	// cheap set-ups get more samples. The builds are split around the
	// measured phase because the machine's speed moves in bursts of a few
	// seconds.
	maxSetups   = 25
	setupBudget = time.Second
	// minSamples is the fewest timed ops a run makes: p95 needs ten
	// samples beyond it.
	minSamples = 200
	// block is how long a run measures before it times the reference
	// kernel again (untraced) or switches between the traced and the
	// untraced instance (traced).
	block = 500 * time.Millisecond
)

// options are one workload run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	spans   string // a traced run writes its spans here; "" for none
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome. Metrics holds the gated
// end-to-end metrics, or with trace on the per-layer ones; Extra holds
// the ungated end-to-end metrics the run could report.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extra     map[string]metricValue `json:"extra,omitempty"`
	Digest    string                 `json:"digest"`
	KernelMS  float64                `json:"kernel_ms"`          // median reference-kernel CPU time over the run
	StealPct  float64                `json:"steal_pct"`          // share of vCPU time stolen while timed
	Problems  []string               `json:"problems,omitempty"` // each makes the run incorrect
	Notes     []string               `json:"notes,omitempty"`    // per-layer values the run could not measure
}

func (r *result) set(m map[string]metricValue, name string, v float64) {
	d, ok := metricByName(name)
	if !ok {
		panic("bench: undefined metric " + name)
	}
	m[name] = metricValue{Value: v, Unit: d.Unit}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// auditor is implemented by workloads whose agent joins each prediction
// with its measured outcome.
type auditor interface {
	auditStats() (joined uint64, pending int, mape float64)
}

func auditorOf(r runner) (auditor, bool) {
	if c, ok := r.(*closedLoop); ok {
		a, ok := c.s.(auditor)
		return a, ok
	}
	return nil, false
}

// checkAudit requires every op of r to have joined its prediction.
func (res *result) checkAudit(r runner, ops int, what string) {
	if a, ok := auditorOf(r); ok {
		if joined, pending, _ := a.auditStats(); joined != uint64(ops) || pending != 0 {
			res.problem("%s: audit joined %d of %d rounds with %d pending", what, joined, ops, pending)
		}
	}
}

// runWorkload sets w up at least three times, replays its prefix on the
// first instance as the reference, and measures the last; a traced run
// instead builds two instances and alternates blocks between the plain
// one and one with the program's own instrumentation on.
func runWorkload(w *workload, o options, gold goldens) (*result, error) {
	seed := deriveSeed(o.seed, w.name)
	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace,
		Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}}
	sc, err := startScaler()
	if err != nil {
		return nil, err
	}
	defer sc.stop()
	var setupS []float64 // on the machine alone at the reference speed
	build := func(in *instruments) (runner, error) {
		if err := sc.sample(); err != nil {
			return nil, err
		}
		t := time.Now()
		r, err := w.build(seed, in, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s: set up: %w", w.name, err)
		}
		wall := time.Since(t).Seconds()
		kept, speed, err := sc.next()
		if err != nil {
			r.close()
			return nil, err
		}
		setupS = append(setupS, wall*kept*speed)
		return r, nil
	}

	ref, err := build(nil)
	if err != nil {
		return nil, err
	}
	refPh := &phase{prefix: w.prefix}
	if err := ref.run(0, w.prefix, refPh, nil); err != nil {
		ref.close()
		return nil, err
	}
	res.checkAudit(ref, w.prefix, "reference")
	var mape float64
	if a, ok := auditorOf(ref); ok {
		_, _, mape = a.auditStats()
	}
	if err := ref.close(); err != nil {
		return nil, err
	}
	runtime.GC()

	// Extra set-ups are built one at a time, each alone in the heap, so
	// rss_peak_mb sees one instance at a time.
	extras := func(budget float64, upTo int) error {
		for spent := 0.0; len(setupS) < upTo && spent < budget; {
			n := len(setupS)
			extra, err := build(nil)
			if err != nil {
				return err
			}
			spent += setupS[n] // near enough to wall time for a budget
			if err := extra.close(); err != nil {
				return err
			}
			runtime.GC()
		}
		return nil
	}
	if !o.trace {
		if err := extras(setupBudget.Seconds()/2, maxSetups/2); err != nil {
			return nil, err
		}
	}
	main, err := build(nil)
	if err != nil {
		return nil, err
	}
	live := []runner{main}
	defer func() {
		for _, r := range live {
			r.close()
		}
	}()
	var in *instruments
	var third runner
	if o.trace {
		in = newInstruments()
		if third, err = build(in); err != nil {
			return nil, err
		}
		live = append(live, third)
	}
	runtime.GC()

	ph := &phase{prefix: w.prefix}
	var tr *tracer
	var traced *phase
	if !o.trace {
		if err := measure(main, o.seconds, max(w.prefix, minSamples), ph, sc, w.open); err != nil {
			return nil, err
		}
	} else {
		tr = newTracer()
		traced = &phase{prefix: w.prefix}
		before := in.totals()
		// The traced run reports no end-to-end percentile, so it only needs
		// the digest prefix.
		for spent := time.Duration(0); spent < o.seconds; spent += 2 * block {
			if err := main.run(block, w.prefix, ph, nil); err != nil {
				return nil, err
			}
			if err := third.run(block, w.prefix, traced, tr); err != nil {
				return nil, err
			}
		}
		if a, ok := auditorOf(third); ok {
			joined, pending, _ := a.auditStats()
			tr.counts["audit.joined"] = float64(joined)
			tr.counts["audit.rounds"] = float64(traced.attempted)
			tr.counts["audit.pending"] = float64(pending)
		}
		m, notes := layerMetrics(tr, in.totals().minus(before), mean(ph.lat))
		for _, d := range perLayer {
			res.set(res.Metrics, d.Name, m[d.Name])
		}
		res.Notes = notes
		if o.spans != "" {
			if err := tr.writeSpans(o.spans, w.name); err != nil {
				return nil, err
			}
		}
	}

	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.checkAudit(main, ph.attempted, "measured")
	for _, r := range live {
		if err := r.close(); err != nil {
			res.problem("close: %v", err)
		}
	}
	live = nil
	if !o.trace {
		if err := extras(setupBudget.Seconds()/2, maxSetups); err != nil {
			return nil, err
		}
	}
	res.Digest = digestOf(refPh)
	_, res.KernelMS, _ = quartiles(sc.samples)
	res.StealPct = sc.stealPct()
	for _, p := range []*phase{refPh, ph, traced} {
		if p == nil {
			continue
		}
		for _, msg := range p.errs {
			res.problem("%s", msg)
		}
		if p != refPh {
			if dg := digestOf(p); dg != res.Digest {
				res.problem("decision digest %s differs from the reference replay's %s", dg, res.Digest)
			}
		}
	}
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	if len(refPh.decisions) == 0 {
		res.problem("the reference replay made no decision")
	}
	if want, ok := gold.lookup(o.seed, w.name); ok && want != res.Digest {
		res.problem("decision digest %s differs from the committed %s for seed %d", res.Digest, want, o.seed)
	}

	if !o.trace {
		res.e2e(ph, setupS, refPh, mape)
	}
	res.Correct = res.Failed == 0 && refPh.failed == 0 && len(res.Problems) == 0
	return res, nil
}

// measure runs r in blocks until d has passed and at least minOps ops
// have been attempted, timing the reference kernel between blocks (see
// calib.go). A closed loop's block, its latencies and its duration, is
// scaled by the share of time not stolen and by the kernel's speed. An
// open loop's duration is set by its offered rate, so it stays wall
// time, and its latencies are only scaled by the share not stolen: they
// are mostly pacing, dispatch and queueing, which do not follow the
// kernel. Scaled by the kernel as well, ten runs of service-mixed spread
// 15% in p50 where wall time spread 6%.
func measure(r runner, d time.Duration, minOps int, ph *phase, sc *scaler, open bool) error {
	if err := sc.sample(); err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start) < d || ph.attempted < minOps {
		n, elapsed := len(ph.lat), ph.elapsed
		if err := r.run(block, 0, ph, nil); err != nil {
			return err
		}
		kept, speed, err := sc.next()
		if err != nil {
			return err
		}
		f := kept * speed
		if open {
			f = kept
		}
		for i := n; i < len(ph.lat); i++ {
			ph.lat[i] *= f
		}
		if !open {
			ph.elapsed = elapsed + time.Duration(float64(ph.elapsed-elapsed)*f)
		}
	}
	return nil
}

// digestOf hashes a phase's prefix decisions; service decisions are
// ordered by (tenant, seq) first.
func digestOf(ph *phase) string {
	ds := append([]decision(nil), ph.decisions...)
	sortDecisions(ds)
	return digest(ds)
}

// e2e fills in the end-to-end metrics of an untraced run.
func (res *result) e2e(ph *phase, setupS []float64, ref *phase, mape float64) {
	_, setup, _ := quartiles(setupS)
	res.set(res.Metrics, "setup_s", setup)
	res.set(res.Metrics, "ops_per_s", float64(len(ph.lat))/ph.elapsed.Seconds())
	for _, q := range []struct {
		m    map[string]metricValue
		name string
		q    float64
	}{{res.Metrics, "latency_p50_ms", 0.5}, {res.Extra, "latency_p95_ms", 0.95}} {
		v, err := percentile(append([]float64(nil), ph.lat...), q.q)
		if err != nil {
			res.problem("%s: %v", q.name, err)
		}
		res.set(q.m, q.name, v)
	}
	res.set(res.Metrics, "latency_mean_ms", mean(ph.lat))
	res.set(res.Metrics, "rss_peak_mb", rssPeakMB())
	var pred, app []float64
	for _, d := range ref.decisions {
		pred = append(pred, d.Predicted)
		if d.Measured > 0 {
			app = append(app, d.Measured)
		}
	}
	res.set(res.Extra, "predicted_time_s", mean(pred))

	if v, err := percentile(append([]float64(nil), ph.lat...), 0.99); err == nil {
		res.set(res.Extra, "latency_p99_ms", v)
	}
	res.set(res.Extra, "error_rate", ratio(float64(ph.failed), float64(ph.attempted)))
	if len(app) > 0 {
		res.set(res.Extra, "app_time_s", mean(app))
		res.set(res.Extra, "prediction_mape", mape)
	}
}

// rssPeakMB is the process's peak resident set, from getrusage (Linux
// reports ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// sortedNames returns a map's keys in order.
func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// spansPath is where a traced run writes its spans by default.
func spansPath(workdir, workload string) string {
	return filepath.Join(workdir, "trace-"+workload+".jsonl")
}
