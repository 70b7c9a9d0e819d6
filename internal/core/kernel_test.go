package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// kernelTopology is a 1200-host, 24-site grid with heterogeneous speed,
// memory, and architecture, for pricing random chains.
func kernelTopology(rng *rand.Rand) *grid.Topology {
	tp := grid.NewTopology(sim.NewEngine())
	backbone := tp.AddLink(grid.LinkSpec{Name: "backbone", Latency: 0.005, Bandwidth: 8})
	archs := []string{"ws", "vec", "mpp"}
	for s := 0; s < 24; s++ {
		site := fmt.Sprintf("site%d", s)
		sw := tp.AddLink(grid.LinkSpec{Name: site + "-sw", Latency: 0.0005 * float64(1+s%3), Bandwidth: 4 + float64(s%5)*4})
		tp.AddRouter(site + "-gw")
		tp.Attach(site+"-gw", sw)
		tp.Attach(site+"-gw", backbone)
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("%s-h%d", site, i)
			tp.AddHost(grid.HostSpec{
				Name: name, Arch: archs[rng.Intn(len(archs))], Site: site,
				Speed:    logUniform(rng, 5, 200),
				MemoryMB: logUniform(rng, 8, 2048),
			})
			tp.Attach(name, sw)
		}
	}
	tp.Finalize()
	return tp
}

// logUniform draws from [lo, hi) evenly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// kernelInfo is a hostile information source: availabilities drawn per
// host with zeros, negatives, and NaNs mixed in, and per-pair
// bandwidths hashed from the pair names with dead (zero) routes mixed
// in. Values are fixed per host or pair, so every consumer sees the
// same numbers.
type kernelInfo struct {
	tp    *grid.Topology
	avail map[string]float64
}

func newKernelInfo(rng *rand.Rand, tp *grid.Topology) *kernelInfo {
	ki := &kernelInfo{tp: tp, avail: map[string]float64{}}
	for _, h := range tp.Hosts() {
		var v float64
		switch r := rng.Intn(20); {
		case r == 0:
			v = 0
		case r == 1:
			v = math.NaN()
		case r == 2:
			v = -0.5
		default:
			v = 0.02 + 0.98*rng.Float64()
		}
		ki.avail[h.Name] = v
	}
	return ki
}

func (ki *kernelInfo) Availability(host string) float64 { return ki.avail[host] }
func (ki *kernelInfo) RouteBandwidth(a, b string) float64 {
	f := fnv.New64a()
	f.Write([]byte(a + "|" + b))
	x := f.Sum64()
	if x%23 == 0 {
		return 0
	}
	return 0.05 + float64(x%10007)/100
}
func (ki *kernelInfo) RouteLatency(a, b string) float64 { return ki.tp.RouteLatency(a, b) }
func (ki *kernelInfo) Source() string                   { return "kernel-test" }

// TestKernelMatchesPlannerEstimator is the strip kernel's differential
// oracle: on seeded random chains it must reproduce the allocating
// planner + estimator bit for bit — the same feasibility, the same
// iteration time and score float bits, and a DeepEqual placement — and
// Agent.EstimatePlacement must price the oracle's placement exactly as
// the estimator does. Chains cover memory caps from absent to far too
// small (spill, capacity relaxation), zero/negative/NaN availability,
// dead routes, implementation speed factors, every user metric, and
// chains of 1000+ hosts. The planner solves with partition.TimeBalanced,
// which TestTimeBalancedMatchesOneAtATime pins to the one-at-a-time
// drop oracle, so the kernel's one-pass drop is pinned to it as well.
func TestKernelMatchesPlannerEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp := kernelTopology(rng)
	info := newKernelInfo(rng, tp)
	hosts := tp.Hosts()
	rates := map[string]float64{}
	for _, h := range hosts {
		if rng.Intn(3) == 0 {
			rates[h.Name] = logUniform(rng, 0.1, 10)
		}
	}
	metrics := []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost}

	trials := 2000
	if testing.Short() {
		trials = 200
	}
	mismatches, feasible, large := 0, 0, 0
	kn := new(stripKernel)
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(3000)
		tpl := hat.Jacobi2D(n, 1+rng.Intn(50))
		tpl.Tasks[0].BytesPerUnit = []float64{0, 16, 160, 1600}[rng.Intn(4)]
		tpl.Tasks[0].Implementations = map[string]hat.Implementation{
			"vec": {Arch: "vec", SpeedFactor: 1.7}, "mpp": {Arch: "mpp", SpeedFactor: 0.6}}
		spec := &userspec.Spec{Metric: metrics[rng.Intn(len(metrics))], CostPerCPUHour: rates}
		spill := []float64{25, 3}[rng.Intn(2)]
		agent, err := NewAgent(tp, tpl, spec, info, WithSpillFactor(spill))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(16)
		if trial%40 == 0 {
			k = 1000 + rng.Intn(200)
			large++
		}
		chain := make([]*grid.Host, k)
		names := make([]string, k)
		for i, j := range rng.Perm(len(hosts))[:k] {
			chain[i], names[i] = hosts[j], hosts[j].Name
		}
		solo := logUniform(rng, 1, 1000)

		pl := &planner{tp: tp, tpl: tpl, info: info}
		es := newEstimator(tp, spec, tpl.Tasks[0].BytesPerUnit, spill, max(tpl.Iterations, 1))
		wantP, costs, _, werr := pl.plan(n, chain)

		rp := agent.newPricer(n)
		rp.info = info
		iterT, ok := rp.solve(kn, chain)

		name := fmt.Sprintf("trial %d (n=%d, k=%d, %v)", trial, n, k, spec.Metric)
		if ok != (werr == nil) {
			mismatches++
			t.Errorf("%s: kernel ok=%v, planner err=%v", name, ok, werr)
			continue
		}
		if !ok {
			continue
		}
		feasible++
		wantIter := es.iterTime(wantP, costs)
		wantScore := es.score(wantIter, wantP, solo)
		score := kn.score(&rp.m, k, iterT, solo)
		gotP := kn.placement(&rp.m, names)
		if math.Float64bits(iterT) != math.Float64bits(wantIter) ||
			math.Float64bits(score) != math.Float64bits(wantScore) || !reflect.DeepEqual(gotP, wantP) {
			mismatches++
			t.Errorf("%s: kernel (%v, %v) vs oracle (%v, %v), placements equal=%v",
				name, iterT, score, wantIter, wantScore, reflect.DeepEqual(gotP, wantP))
			continue
		}

		// Pricing the oracle's placement through the agent.
		var worked []*grid.Host
		for _, a := range wantP.Assignments {
			worked = append(worked, tp.Host(a.Host))
		}
		wantEst := math.NaN()
		wcosts, cerr := pl.costsFor(n, worked)
		if cerr == nil {
			wantEst = es.iterTime(wantP, wcosts)
		}
		gotEst, gerr := agent.EstimatePlacement(n, wantP)
		if (gerr == nil) != (cerr == nil) || (gerr == nil && math.Float64bits(gotEst) != math.Float64bits(wantEst)) {
			mismatches++
			t.Errorf("%s: EstimatePlacement (%v, %v) vs oracle (%v, %v)", name, gotEst, gerr, wantEst, cerr)
		}
		if mismatches > 5 {
			t.FailNow()
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d mismatches", mismatches, trials)
	}
	if feasible < trials/4 || large == 0 {
		t.Fatalf("weak sample: %d feasible, %d large chains of %d trials", feasible, large, trials)
	}
	t.Logf("%d trials (%d feasible, %d with 1000+ hosts), 0 mismatches", trials, feasible, large)
}
