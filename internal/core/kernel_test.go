package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/partition"
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
		rp.cols = rawCols(rp.hp, info, rp.m.flopPerUnit)
		idx := make([]int, k)
		for i, h := range chain {
			idx[i] = slices.Index(rp.hp.hosts, h)
		}
		iterT, ok := rp.solveChain(kn, idx)

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

// largestRemainderOracle is partition's largestRemainder, copied as the
// oracle for stripKernel.roundRows: floor every positive weight's exact
// share, hand one more row to the largest remainders (ties to the lower
// index) found by a full sort, and dump any shortfall on the largest
// weight.
func largestRemainderOracle(weights []float64, total int) []int {
	n := len(weights)
	out := make([]int, n)
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 || total <= 0 {
		return out
	}
	type frac struct {
		idx int
		rem float64
	}
	assigned := 0
	fracs := make([]frac, 0, n)
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(total) * w / sum
		fl := math.Floor(exact)
		out[i] = int(fl)
		assigned += int(fl)
		fracs = append(fracs, frac{i, exact - fl})
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for k := 0; assigned < total && k < len(fracs); k++ {
		out[fracs[k].idx]++
		assigned++
	}
	for assigned < total {
		best := 0
		for i := range weights {
			if weights[i] > weights[best] {
				best = i
			}
		}
		out[best]++
		assigned++
	}
	return out
}

// remainderShape classifies a rounding by r, the rows left after the
// floors, against nf, the number of positive weights: "none" (nothing to
// round), "r=0", "select" (0 < r < nf, the selection path) or "r>=nf".
func remainderShape(area []float64, total int) string {
	sum := 0.0
	for _, w := range area {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 || total <= 0 {
		return "none"
	}
	assigned, nf := 0, 0
	for _, w := range area {
		if w > 0 {
			assigned += int(math.Floor(float64(total) * w / sum))
			nf++
		}
	}
	switch r := total - assigned; {
	case r <= 0:
		return "r=0"
	case r >= nf:
		return "r>=nf"
	}
	return "select"
}

// TestRoundRowsMatchesLargestRemainder is the differential test of the
// kernel's selection-based rounding against the sort-based oracle, on
// chains of 1 to 2048 hosts and totals of 1 to 4000 rows: distinct
// areas, heavy ties (a quiet grid gives a whole cluster one area, so
// the tie-break by index decides), zero and negative areas, and the
// r = 0 and r ≥ nf edges. It also pins schedule's host order to a
// stable sort on placement share.
func TestRoundRowsMatchesLargestRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gens := []struct {
		name string
		area func(k int) []float64
	}{
		{"distinct", func(k int) []float64 {
			a := make([]float64, k)
			for i := range a {
				a[i] = logUniform(rng, 1e-3, 1e3)
			}
			return a
		}},
		{"equal", func(k int) []float64 {
			a := make([]float64, k)
			v := logUniform(rng, 1e-3, 1e3)
			for i := range a {
				a[i] = v
			}
			return a
		}},
		{"clusters", func(k int) []float64 {
			a := make([]float64, k)
			per := 1 + rng.Intn(32)
			v := 0.0
			for i := range a {
				if i%per == 0 {
					v = float64(1 + rng.Intn(4)) // few distinct values across clusters too
				}
				a[i] = v
			}
			return a
		}},
		{"zero-negative", func(k int) []float64 {
			a := make([]float64, k)
			for i := range a {
				switch rng.Intn(4) {
				case 0:
					a[i] = 0
				case 1:
					a[i] = -logUniform(rng, 1e-3, 1e3)
				default:
					a[i] = logUniform(rng, 1e-3, 1e3)
				}
			}
			return a
		}},
	}
	shapes := map[string]int{}
	kn := new(stripKernel)
	check := func(name string, area []float64, total int) {
		t.Helper()
		k := len(area)
		kn.reserve(k)
		copy(kn.area, area)
		kn.roundRows(k, total)
		want := largestRemainderOracle(area, total)
		if !slices.Equal(kn.rows[:k], want) {
			for i := range want {
				if kn.rows[i] != want[i] {
					t.Fatalf("%s (k=%d, total=%d): rows[%d] = %d, oracle %d", name, k, total, i, kn.rows[i], want[i])
				}
			}
		}
		shapes[remainderShape(area, total)]++

		// schedule orders the hosts by share, larger first, ties in
		// chain order.
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("h%d", i)
		}
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return want[order[a]] > want[order[b]] })
		byShare := make([]string, k)
		for j, i := range order {
			byShare[j] = names[i]
		}
		m := &stripModel{n: total, iterations: 1}
		if got := kn.schedule(m, names, 1).Hosts; !slices.Equal(got, byShare) {
			t.Fatalf("%s (k=%d, total=%d): schedule order %v, want %v", name, k, total, got, byShare)
		}
	}
	for _, k := range []int{1, 2, 3, 5, 8, 16, 31, 64, 65, 100, 257, 1000, 2048} {
		totals := []int{1, 2, max(1, k/2), k, k + 1, 997, 4000, 1 + rng.Intn(4000)}
		for _, g := range gens {
			for _, total := range totals {
				check(g.name, g.area(k), total)
			}
		}
		// Equal areas over a multiple of k rows divide exactly: r = 0.
		area := make([]float64, k)
		for i := range area {
			area[i] = 1
		}
		check("exact", area, k*(1+rng.Intn(max(1, 4000/k))))
	}
	// One positive area whose share rounds below the total leaves r ≥ nf
	// = 1: the single remainder is taken without selecting.
	for found := 0; found < 8; {
		w, total := rng.Float64()+1e-9, 1+rng.Intn(4000)
		if math.Floor(float64(total)*w/w) >= float64(total) {
			continue
		}
		check("single", []float64{0, w, -1}, total)
		found++
	}
	for _, s := range []string{"r=0", "select", "r>=nf"} {
		if shapes[s] == 0 {
			t.Errorf("no rounding with %s", s)
		}
	}
	t.Logf("rounding shapes: %v", shapes)

	// Remainders ordered so that every median-of-three pivot splits off
	// little (found by hill-climbing on the partition count): selecting
	// the first 12 of 24 exhausts the partition budget and finishes on
	// the sort fallback.
	adversary := []float64{16, 8, 19, 15, 18, 17, 1, 0, 2, 11, 13, 12, 23, 20, 4, 3, 7, 14, 21, 10, 9, 6, 5, 22}
	fs := fracSorter{idx: make([]int, len(adversary)), rem: slices.Clone(adversary)}
	for i := range fs.idx {
		fs.idx[i] = i
	}
	fs.selectFirst(12)
	for f, v := range fs.rem {
		if v >= 12 != (f < 12) {
			t.Fatalf("adversarial selection put %v at %d: %v", v, f, fs.rem)
		}
		if adversary[fs.idx[f]] != v {
			t.Fatalf("adversarial selection separated index %d from its value %v", fs.idx[f], v)
		}
	}
}

// TestKernelReserveAllocs pins the kernel's column growth: a fresh
// kernel fed every chain length from 1 to 2048, as the exhaustive
// prefix fallback feeds a 2048-host pool, grows its 12 columns at most
// 12 times (doubling), not once per new length.
func TestKernelReserveAllocs(t *testing.T) {
	kn := new(stripKernel)
	allocs := testing.AllocsPerRun(5, func() {
		*kn = stripKernel{}
		for k := 1; k <= 2048; k++ {
			kn.reserve(k)
		}
	})
	if allocs > 12*12 {
		t.Fatalf("reserve over lengths 1..2048 made %.0f allocations, want ≤ %d", allocs, 12*12)
	}
	if len(kn.secPP) < 2048 || len(kn.chain) != len(kn.secPP) || len(kn.lrRem) != len(kn.secPP) {
		t.Fatalf("columns hold %d/%d/%d positions after reserve(2048)", len(kn.secPP), len(kn.chain), len(kn.lrRem))
	}
}

// TestKernelRejectsNonFiniteInput feeds the kernel chains the freeze
// path never produces, straight into its columns: a border cost or a
// P_i that is +Inf or NaN, and finite columns whose balance overflows
// (C_i/P_i beyond the float range). Balancing such a chain gives NaN or
// infinite areas, on which rounding once spun through about 2^63
// degenerate dumps, as partition.TimeBalanced did. The kernel must
// report ok=false within the deadline, and partition.TimeBalanced must
// report an error.
func TestKernelRejectsNonFiniteInput(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	m := stripModel{n: 600, iterations: 10, spillFactor: 25}
	for _, tc := range []struct {
		name           string
		secPP, commSec []float64
	}{
		{"inf-border-pair", []float64{1e-6, 1e-6}, []float64{inf, 0.01}},
		{"inf-border", []float64{1e-6, 1e-6, 1e-6}, []float64{inf, 0.01, 0.01}},
		{"nan-border", []float64{1e-6, 1e-6, 1e-6}, []float64{nan, 0.01, 0.01}},
		{"inf-secpp", []float64{inf, 1e-6, 1e-6}, []float64{0.01, 0.01, 0.01}},
		{"nan-secpp", []float64{1e-6, nan, 1e-6}, []float64{0.01, 0.01, 0.01}},
		{"balance-overflow", []float64{1e-300, 1e-300, 1e-300}, []float64{1e300, 1e300, 1e300}},
	} {
		done := make(chan error, 1)
		go func() {
			costs := make([]partition.HostCost, len(tc.secPP))
			for i := range costs {
				costs[i] = partition.HostCost{Host: fmt.Sprint("h", i), SecPerPoint: tc.secPP[i], CommSec: tc.commSec[i]}
			}
			if _, _, err := partition.TimeBalanced(m.n, costs, 0); err == nil {
				done <- fmt.Errorf("partition.TimeBalanced accepted the chain")
				return
			}
			kn := new(stripKernel)
			kn.reserve(len(tc.secPP))
			copy(kn.secPP, tc.secPP)
			copy(kn.commSec, tc.commSec)
			if iterT, ok := kn.solve(&m, len(tc.secPP)); ok {
				done <- fmt.Errorf("kernel solved the chain: iteration time %v", iterT)
				return
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: kernel did not return within 10 s", tc.name)
		}
	}
}
