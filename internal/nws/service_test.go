package nws

import (
	"math"
	"strings"
	"testing"

	"apples/internal/grid"
	"apples/internal/load"
	"apples/internal/obs"
	"apples/internal/sim"
)

func TestServiceForecastsHostAvailability(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	h := tp.AddHost(grid.HostSpec{
		Name: "h", Speed: 10, MemoryMB: 64,
		Load: load.Constant(1), // availability 0.5 forever
	})
	tp.Finalize()

	svc := NewService(eng, 10)
	svc.WatchHost(h)
	if err := eng.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	v, ok := svc.AvailabilityForecast("h")
	if !ok || math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("availability forecast %v ok=%v, want 0.5", v, ok)
	}
	if rmse, ok := svc.AvailabilityError("h"); !ok || rmse > 1e-9 {
		t.Fatalf("availability RMSE %v ok=%v, want 0", rmse, ok)
	}
}

func TestServiceForecastsLinkBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	tp.AddHost(grid.HostSpec{Name: "a", Speed: 1, MemoryMB: 1})
	tp.AddHost(grid.HostSpec{Name: "b", Speed: 1, MemoryMB: 1})
	l := tp.AddLink(grid.LinkSpec{
		Name: "wire", Latency: 0, Bandwidth: 4,
		CrossTraffic: load.Constant(1),
	})
	tp.Attach("a", l)
	tp.Attach("b", l)
	tp.Finalize()

	svc := NewService(eng, 5)
	svc.WatchLink(l)
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	v, ok := svc.BandwidthForecast("wire")
	if !ok || math.Abs(v-2) > 1e-9 {
		t.Fatalf("bandwidth forecast %v ok=%v, want 2", v, ok)
	}
	if bw := svc.RouteBandwidthForecast(tp, "a", "b"); math.Abs(bw-2) > 1e-9 {
		t.Fatalf("route bandwidth forecast %v, want 2", bw)
	}
}

func TestServiceUnwatchedReturnsNotOK(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng, 10)
	if _, ok := svc.AvailabilityForecast("ghost"); ok {
		t.Fatal("forecast for unwatched host returned ok")
	}
	if _, ok := svc.BandwidthForecast("ghost"); ok {
		t.Fatal("forecast for unwatched link returned ok")
	}
}

func TestServiceNoHistoryNotOK(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	h := tp.AddHost(grid.HostSpec{Name: "h", Speed: 1, MemoryMB: 1})
	tp.Finalize()
	svc := NewService(eng, 10)
	svc.WatchHost(h)
	// Clock has not advanced; no samples yet.
	if _, ok := svc.AvailabilityForecast("h"); ok {
		t.Fatal("forecast before first sample returned ok")
	}
}

func TestWatchTopologyCoversEverything(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 5})
	svc := NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(600); err != nil {
		t.Fatal(err)
	}
	for _, h := range tp.Hosts() {
		if _, ok := svc.AvailabilityForecast(h.Name); !ok {
			t.Errorf("no availability forecast for %s", h.Name)
		}
	}
	for _, l := range tp.Links() {
		if _, ok := svc.BandwidthForecast(l.Name); !ok {
			t.Errorf("no bandwidth forecast for %s", l.Name)
		}
	}
	rep := svc.Report()
	if !strings.Contains(rep, "sparc2") || !strings.Contains(rep, "sdsc-fddi") {
		t.Fatalf("report missing entries:\n%s", rep)
	}
}

func TestServiceTracksChangingLoad(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	// Load 0 for 500 s, then load 4 forever.
	h := tp.AddHost(grid.HostSpec{
		Name: "h", Speed: 10, MemoryMB: 64,
		Load: load.NewTrace([]load.Step{{At: 0, Value: 0}, {At: 500, Value: 4}}),
	})
	tp.Finalize()
	svc := NewService(eng, 10)
	svc.WatchHost(h)

	if err := eng.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	v1, _ := svc.AvailabilityForecast("h")
	if math.Abs(v1-1) > 0.01 {
		t.Fatalf("pre-shift forecast %v, want ~1", v1)
	}
	if err := eng.RunUntil(1500); err != nil {
		t.Fatal(err)
	}
	v2, _ := svc.AvailabilityForecast("h")
	if math.Abs(v2-0.2) > 0.05 {
		t.Fatalf("post-shift forecast %v, want ~0.2", v2)
	}
}

func TestServiceStopHaltsSensors(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	h := tp.AddHost(grid.HostSpec{Name: "h", Speed: 1, MemoryMB: 1})
	tp.Finalize()
	svc := NewService(eng, 10)
	svc.WatchHost(h)
	svc.Stop()
	if err := eng.Run(); err != nil {
		t.Fatal(err) // would never drain if sensors kept ticking
	}
}

func TestForecastAccuracyOnTestbedBeatsNaiveStatic(t *testing.T) {
	// On the loaded testbed, the NWS forecast of sparc2 availability must
	// be closer to truth than assuming the machine is dedicated (av=1).
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 21})
	svc := NewService(eng, 10)
	svc.WatchTopology(tp)

	var nwsErr, staticErr float64
	n := 0
	for i := 0; i < 100; i++ {
		if err := eng.RunUntil(200 + float64(i)*10); err != nil {
			t.Fatal(err)
		}
		fc, ok := svc.AvailabilityForecast("sparc2")
		if !ok {
			continue
		}
		truth := tp.Host("sparc2").Availability()
		nwsErr += (fc - truth) * (fc - truth)
		staticErr += (1 - truth) * (1 - truth)
		n++
	}
	if n == 0 {
		t.Fatal("no forecasts scored")
	}
	if nwsErr >= staticErr {
		t.Fatalf("NWS MSE %v not better than static assumption MSE %v", nwsErr/float64(n), staticErr/float64(n))
	}
}

// TestServiceSweepSpans: with stage timing attached, every batch sweep
// records exactly one sensor_sweep observation covering all sensors —
// exact counts against the tick count, plus EvSpan events in the ring.
func TestServiceSweepSpans(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	h1 := tp.AddHost(grid.HostSpec{Name: "h1", Speed: 10, MemoryMB: 64, Load: load.Constant(1)})
	h2 := tp.AddHost(grid.HostSpec{Name: "h2", Speed: 10, MemoryMB: 64, Load: load.Constant(1)})
	l := tp.AddLink(grid.LinkSpec{Name: "wire", Latency: 0, Bandwidth: 4})
	tp.Attach("h1", l)
	tp.Attach("h2", l)
	tp.Finalize()

	reg := obs.NewMetrics()
	ring := obs.NewRingTracer(16)
	st := obs.NewStageTimer(reg, ring, nil)
	svc := NewService(eng, 10, WithMetrics(reg), WithStageTiming(st))
	svc.WatchHost(h1)
	svc.WatchHost(h2)
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}

	sweeps := reg.Counter(obs.MetricSensorSweeps).Value()
	if sweeps == 0 {
		t.Fatal("no sweeps recorded")
	}
	hist := reg.Histogram(obs.StageMetricName(obs.StageSweep), nil)
	if hist.Count() != sweeps {
		t.Fatalf("sweep spans = %d, want one per sweep (%d)", hist.Count(), sweeps)
	}
	for _, e := range ring.Recent(0) {
		if e.Type != obs.EvSpan || e.Stage != obs.StageSweep {
			t.Fatalf("ring holds non-sweep event %+v", e)
		}
	}
	if got := uint64(len(ring.Recent(0))); got != sweeps {
		t.Fatalf("ring holds %d sweep events, want %d", got, sweeps)
	}
	// Timing must not perturb sensing: both banks saw every sweep.
	if got := reg.Counter(obs.MetricBankUpdates).Value(); got != 2*sweeps {
		t.Fatalf("bank updates = %d, want %d (2 hosts x %d sweeps)", got, 2*sweeps, sweeps)
	}
}

// Report lists hosts then links, each block sorted by name, regardless of
// watch order (map iteration must not leak into the output).
func TestReportStableOrdering(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	names := []string{"zeta", "alpha", "mu", "beta", "omega"}
	for _, n := range names {
		tp.AddHost(grid.HostSpec{Name: n, Speed: 1, MemoryMB: 1, Load: load.Constant(1)})
	}
	l := tp.AddLink(grid.LinkSpec{Name: "wire", Latency: 0, Bandwidth: 4})
	for _, n := range names {
		tp.Attach(n, l)
	}
	tp.Finalize()

	svc := NewService(eng, 10)
	for _, n := range names {
		svc.WatchHost(tp.Host(n))
	}
	svc.WatchLink(l)
	if err := eng.RunUntil(50); err != nil {
		t.Fatal(err)
	}

	first := svc.Report()
	for i := 0; i < 10; i++ {
		if svc.Report() != first {
			t.Fatal("Report output is not deterministic across calls")
		}
	}
	var prev string
	sawLink := false
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("malformed report line %q", line)
		}
		kind, name := fields[0], fields[1]
		switch kind {
		case "cpu":
			if sawLink {
				t.Fatalf("host line %q after link lines", line)
			}
			if prev != "" && name < prev {
				t.Fatalf("host %q out of order after %q", name, prev)
			}
			prev = name
		case "bw":
			sawLink = true
		default:
			t.Fatalf("unknown report line kind %q", kind)
		}
	}
	if !sawLink {
		t.Fatal("report missing link section")
	}
}

// Sensors counts registered samplers; ObserveAll drives one sweep without
// the simulation clock.
func TestSensorsAndObserveAll(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	a := tp.AddHost(grid.HostSpec{Name: "a", Speed: 1, MemoryMB: 1, Load: load.Constant(1)})
	b := tp.AddHost(grid.HostSpec{Name: "b", Speed: 1, MemoryMB: 1, Load: load.Constant(3)})
	l := tp.AddLink(grid.LinkSpec{Name: "ab", Latency: 0, Bandwidth: 4})
	tp.Attach("a", l)
	tp.Attach("b", l)
	tp.Finalize()

	svc := NewService(eng, 10)
	if svc.Sensors() != 0 {
		t.Fatalf("idle service reports %d sensors, want 0", svc.Sensors())
	}
	svc.WatchHost(a)
	svc.WatchHost(b)
	if svc.Sensors() != 2 {
		t.Fatalf("Sensors() = %d, want 2", svc.Sensors())
	}
	for i := 0; i < 5; i++ {
		svc.ObserveAll(float64(i))
	}
	if got := svc.CPUBank("a").Len(); got != 5 {
		t.Fatalf("host a bank has %d samples after 5 sweeps, want 5", got)
	}
	if v, ok := svc.AvailabilityForecast("b"); !ok || v != 0.25 {
		t.Fatalf("host b forecast %v ok=%v, want 0.25", v, ok)
	}
	svc.Stop()
	if svc.Sensors() != 0 {
		t.Fatalf("Sensors() after Stop = %d, want 0", svc.Sensors())
	}
}
