package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// shortOps is how many ops each workload makes in the tests: enough for
// every layer it exercises to do work (sense-2048 schedules every
// senseEvery ops; service-mixed sends one round to every tenant).
var shortOps = map[string]int{
	"fig2-round": 5, "grid-2048": 2, "service-mixed": serviceTenants,
	"sense-2048": senseEvery, "resched-live": 5,
}

// TestWorkloadsRunAFewOps builds every workload twice, once plain and
// once with the program's instrumentation on, runs a handful of ops on
// each (tracing the second), and checks that both make the same valid
// decisions and that the traced run reports every per-layer metric.
func TestWorkloadsRunAFewOps(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := shortOps[w.name]
			workdir := t.TempDir()
			seed := deriveSeed(1, w.name)

			plain, err := w.build(seed, nil, workdir)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			in := newInstruments()
			inst, err := w.build(seed, in, workdir)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()

			a, b := &phase{prefix: n}, &phase{prefix: n}
			if err := plain.run(0, n, a, nil); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			before := in.totals()
			if err := inst.run(0, n, b, tr); err != nil {
				t.Fatal(err)
			}
			for _, ph := range []*phase{a, b} {
				if ph.failed > 0 || ph.attempted != n {
					t.Fatalf("%d of %d ops failed (%d attempted): %v", ph.failed, n, ph.attempted, ph.errs)
				}
			}
			if len(a.decisions) == 0 {
				t.Fatal("no decision made")
			}
			if da, db := digestOf(a), digestOf(b); da != db {
				t.Errorf("instrumented instance decided differently: digest %s vs %s", db, da)
			}

			m, _ := layerMetrics(tr, in.totals().minus(before), mean(a.lat))
			for _, d := range perLayer {
				v, ok := m[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v, %v", d.Name, v, ok)
				}
			}
			if got := m["op.mean_ms"]; !(got > 0) {
				t.Errorf("op.mean_ms = %v", got)
			}
		})
	}
}

// TestDigestRepeats runs the same prefix on two fresh instances.
func TestDigestRepeats(t *testing.T) {
	for _, name := range []string{"fig2-round", "service-mixed", "resched-live"} {
		w, _ := workloadByName(name)
		var got []string
		for i := 0; i < 2; i++ {
			r, err := w.build(deriveSeed(7, name), nil, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ph := &phase{prefix: shortOps[name]}
			err = r.run(0, ph.prefix, ph, nil)
			r.close()
			if err != nil || ph.failed > 0 {
				t.Fatalf("%s: %v %v", name, err, ph.errs)
			}
			got = append(got, digestOf(ph))
		}
		if got[0] != got[1] {
			t.Errorf("%s: digests %s and %s differ", name, got[0], got[1])
		}
	}
}

func TestPercentileRefusesShortTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples (9.99 beyond it) was not refused")
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if want := 989.01; math.Abs(v-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", v, want)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples was not refused")
	}
}

// TestServeKernel checks the reference kernel's protocol: one positive
// sample per byte read, then a clean return at end of input.
func TestServeKernel(t *testing.T) {
	var out strings.Builder
	if err := serveKernel(strings.NewReader("ab"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("got %q, want two samples", out.String())
	}
	for _, l := range lines {
		if v, err := strconv.ParseFloat(l, 64); err != nil || !(v > 0) {
			t.Errorf("sample %q is not a positive number of ms", l)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// fakeClock advances only when the generator sleeps or a send stalls.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// TestPaceKeepsDueTimes stalls the second send for 35 ms at a 10 ms
// interval: the requests it delayed still carry their own due times, so
// their lateness (and any latency measured from the due time) shows the
// stall instead of hiding it.
func TestPaceKeepsDueTimes(t *testing.T) {
	c := &fakeClock{}
	var due, late []time.Duration
	pace(c, 5, 10*time.Millisecond, func(k int, d time.Duration) {
		due = append(due, d)
		late = append(late, c.now()-d)
		if k == 1 {
			c.t += 35 * time.Millisecond
		}
	})
	ms := time.Millisecond
	wantDue := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	wantLate := []time.Duration{0, 0, 25 * ms, 15 * ms, 5 * ms}
	for k := range wantDue {
		if due[k] != wantDue[k] || late[k] != wantLate[k] {
			t.Errorf("request %d: due %v late %v, want due %v late %v", k, due[k], late[k], wantDue[k], wantLate[k])
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8}
	slower := []float64{12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{parent, faster, "gain"},
		{parent, slower, "REGRESSION"},
		{parent, parent, "ok"},
		{noisy, parent, "unresolved"},
		{noisy, faster, "unresolved"},
	} {
		if got, _ := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		file, prog []metricDef
	}{{spec.EndToEnd, gated}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics where the program has %d", len(c.file), len(c.prog))
		}
		for i := range c.prog {
			if c.file[i] != c.prog[i] {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the program %+v", i, c.file[i], c.prog[i])
			}
		}
	}
	for _, list := range [][]metricDef{gated, ungated, perLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q", d.Name)
			}
		}
	}
	if _, err := loadGoldens(goldenJSON); err != nil {
		t.Error(err)
	}
}
