package jacobi

import (
	"math"
	"testing"

	"apples/internal/grid"
	"apples/internal/load"
	"apples/internal/partition"
	"apples/internal/sim"
)

// twoHostTopology builds hosts "a" (speed sa) and "b" (speed sb) joined by
// a dedicated link.
func twoHostTopology(eng *sim.Engine, sa, sb, memA, memB float64, loadA load.Source) *grid.Topology {
	tp := grid.NewTopology(eng)
	tp.AddHost(grid.HostSpec{Name: "a", Speed: sa, MemoryMB: memA, Load: loadA})
	tp.AddHost(grid.HostSpec{Name: "b", Speed: sb, MemoryMB: memB})
	l := tp.AddLink(grid.LinkSpec{Name: "wire", Latency: 0.001, Bandwidth: 10, Dedicated: true})
	tp.Attach("a", l)
	tp.Attach("b", l)
	tp.Finalize()
	return tp
}

func TestUniformRunOnEqualHosts(t *testing.T) {
	eng := sim.NewEngine()
	tp := twoHostTopology(eng, 10, 10, 1024, 1024, nil)
	p, err := partition.UniformStrip(100, []string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Iterations: 10, FlopPerPoint: 10, BytesPerPoint: 16}
	res, err := Run(tp, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: 5000 pts * 10 flop = 0.05 Mflop at 10 Mflop/s = 5 ms
	// compute, plus 800-byte border (~0.08 ms + 1 ms latency).
	perIter := res.MeanIterTime()
	if perIter < 0.005 || perIter > 0.010 {
		t.Fatalf("mean iteration %v s, want ~0.006", perIter)
	}
	if len(res.IterTimes) != 10 {
		t.Fatalf("recorded %d iterations, want 10", len(res.IterTimes))
	}
	if res.Hosts != 2 {
		t.Fatalf("hosts = %d, want 2", res.Hosts)
	}
}

func TestSlowHostDominatesUniformPartition(t *testing.T) {
	eng := sim.NewEngine()
	tp := twoHostTopology(eng, 100, 10, 1024, 1024, nil)
	p, _ := partition.UniformStrip(100, []string{"a", "b"}, 8)
	res, err := Run(tp, p, Config{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Iteration time tracks the slow host: 0.05 Mflop / 10 = 5 ms.
	if res.MeanIterTime() < 0.005 {
		t.Fatalf("iteration %v faster than slow host allows", res.MeanIterTime())
	}
}

func TestWeightedBeatsUniformOnHeterogeneousHosts(t *testing.T) {
	run := func(mk func() (*partition.Placement, error), seed int64) float64 {
		eng := sim.NewEngine()
		tp := twoHostTopology(eng, 100, 10, 1024, 1024, nil)
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(tp, p, Config{Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	uniform := run(func() (*partition.Placement, error) {
		return partition.UniformStrip(200, []string{"a", "b"}, 8)
	}, 1)
	weighted := run(func() (*partition.Placement, error) {
		return partition.WeightedStrip(200, []string{"a", "b"}, []float64{100, 10}, 8)
	}, 1)
	if weighted >= uniform {
		t.Fatalf("speed-weighted strip (%v) not faster than uniform (%v)", weighted, uniform)
	}
}

func TestAmbientLoadSlowsRun(t *testing.T) {
	run := func(src load.Source) float64 {
		eng := sim.NewEngine()
		tp := twoHostTopology(eng, 10, 10, 1024, 1024, src)
		p, _ := partition.UniformStrip(100, []string{"a", "b"}, 8)
		res, err := Run(tp, p, Config{Iterations: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	quiet := run(nil)
	loaded := run(load.Constant(3))
	// Host a delivers 1/4 speed; iteration time should roughly triple.
	if loaded < 2.5*quiet {
		t.Fatalf("loaded run %v not much slower than quiet run %v", loaded, quiet)
	}
}

func TestMemorySpillPenalty(t *testing.T) {
	run := func(memA float64) float64 {
		eng := sim.NewEngine()
		tp := twoHostTopology(eng, 10, 10, memA, 1024, nil)
		p, _ := partition.UniformStrip(1000, []string{"a", "b"}, 8)
		res, err := Run(tp, p, Config{Iterations: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	// Strip needs 500k points * 16 B = 8 MB.
	fits := run(64)
	spills := run(4) // half the strip spills
	if spills < 5*fits {
		t.Fatalf("spilled run %v vs resident %v: spill penalty too weak", spills, fits)
	}
}

func TestSpillFractionReported(t *testing.T) {
	eng := sim.NewEngine()
	tp := twoHostTopology(eng, 10, 10, 4, 1024, nil)
	p, _ := partition.UniformStrip(1000, []string{"a", "b"}, 8)
	res, err := Run(tp, p, Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// a needs 8 MB with 4 MB real: half spilled.
	if f := res.SpillFraction["a"]; math.Abs(f-0.5) > 0.01 {
		t.Fatalf("spill fraction %v, want 0.5", f)
	}
	if f := res.SpillFraction["b"]; f != 0 {
		t.Fatalf("host b spill %v, want 0", f)
	}
}

func TestSingleHostNoComm(t *testing.T) {
	eng := sim.NewEngine()
	tp := twoHostTopology(eng, 10, 10, 1024, 1024, nil)
	p, err := partition.WeightedStrip(100, []string{"a", "b"}, []float64{1, 0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tp, p, Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	// All on a: 0.1 Mflop/iter at 10 Mflop/s = 10 ms exactly, no comm.
	if math.Abs(res.MeanIterTime()-0.01) > 1e-6 {
		t.Fatalf("solo iteration %v, want 0.01", res.MeanIterTime())
	}
}

func TestInvalidPlacementRejected(t *testing.T) {
	eng := sim.NewEngine()
	tp := twoHostTopology(eng, 10, 10, 1024, 1024, nil)
	p, _ := partition.UniformStrip(100, []string{"a", "b"}, 8)
	p.Assignments[0].Points += 3
	if _, err := Run(tp, p, Config{Iterations: 1}); err == nil {
		t.Fatal("corrupt placement accepted")
	}
}

func TestUnknownHostRejected(t *testing.T) {
	eng := sim.NewEngine()
	tp := twoHostTopology(eng, 10, 10, 1024, 1024, nil)
	p, _ := partition.UniformStrip(100, []string{"a", "ghost"}, 8)
	if _, err := Run(tp, p, Config{Iterations: 1}); err == nil {
		t.Fatal("placement on unknown host accepted")
	}
}

func TestRunOnFigure2Testbed(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 2})
	hosts := tp.HostNames()
	p, err := partition.UniformStrip(400, hosts, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tp, p, Config{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || len(res.IterTimes) != 10 {
		t.Fatalf("testbed run: time=%v iters=%d", res.Time, len(res.IterTimes))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		eng := sim.NewEngine()
		tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 9})
		p, err := partition.UniformStrip(300, tp.HostNames(), 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(tp, p, Config{Iterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed jacobi runs diverged: %v vs %v", a, b)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{IterTimes: []float64{1, 3, 2}, Time: 6}
	if r.MeanIterTime() != 2 {
		t.Fatalf("MeanIterTime %v", r.MeanIterTime())
	}
	if r.MaxIterTime() != 3 {
		t.Fatalf("MaxIterTime %v", r.MaxIterTime())
	}
	empty := &Result{}
	if empty.MeanIterTime() != 0 || empty.MaxIterTime() != 0 {
		t.Fatal("empty result accessors")
	}
}

func BenchmarkJacobiRunTestbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 2})
		p, err := partition.UniformStrip(500, tp.HostNames(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(tp, p, Config{Iterations: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// allocRun is the alloc gate's workload: a uniform strip of the N=2000
// grid over all eight hosts of the loaded SDSC/PCL testbed, 40
// iterations, as a Fig. 2 round actuates it.
func allocRun(tb testing.TB) (*grid.Topology, *partition.Placement, Config) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 1})
	if err := eng.RunUntil(300); err != nil {
		tb.Fatal(err)
	}
	p, err := partition.UniformStrip(2000, tp.HostNames(), 8)
	if err != nil {
		tb.Fatal(err)
	}
	return tp, p, Config{Iterations: 40}
}

// TestJacobiRunAllocs gates the simulator's allocations per run: the
// event heap, the fluid CPU and network models and their timers must
// not allocate per event, the network recycles its transfers, and the
// run binds its callbacks and routes once. What is left is mostly one
// Task per compute (320 of the ~368 here); one Transfer per border
// send would add 560.
func TestJacobiRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tp, p, cfg := allocRun(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(tp, p, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("jacobi.Run: %.0f allocs/op", allocs)
	if allocs > 405 {
		t.Fatalf("jacobi.Run allocates %.0f objects/op, want <= 405", allocs)
	}
}

// BenchmarkJacobiRun times the alloc gate's workload, reporting sim
// events per run beside -benchmem's allocations.
func BenchmarkJacobiRun(b *testing.B) {
	tp, p, cfg := allocRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	fired := tp.Engine.Fired()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tp, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tp.Engine.Fired()-fired)/float64(b.N), "events/op")
}
