package core

import (
	"sort"
	"testing"

	"apples/internal/grid"
	"apples/internal/load"
	"apples/internal/sim"
)

// selectorFixture builds a two-site topology: two fast hosts on a fast
// local link, one fast host behind a slow WAN.
func selectorFixture(t *testing.T) (*resourceSelector, *grid.Topology) {
	t.Helper()
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	tp.AddHost(grid.HostSpec{Name: "near1", Arch: "ws", Site: "here", Speed: 40, MemoryMB: 256})
	tp.AddHost(grid.HostSpec{Name: "near2", Arch: "ws", Site: "here", Speed: 40, MemoryMB: 256})
	tp.AddHost(grid.HostSpec{Name: "far1", Arch: "ws", Site: "there", Speed: 40, MemoryMB: 256})
	lan := tp.AddLink(grid.LinkSpec{Name: "lan", Latency: 0.0005, Bandwidth: 12, Dedicated: true})
	wan := tp.AddLink(grid.LinkSpec{Name: "wan", Latency: 0.05, Bandwidth: 0.4, Dedicated: true})
	tp.AddRouter("gw")
	tp.Attach("near1", lan)
	tp.Attach("near2", lan)
	tp.Attach("gw", lan)
	tp.Attach("gw", wan)
	tp.Attach("far1", wan)
	tp.Finalize()
	return &resourceSelector{tp: tp, info: OracleInformation(tp)}, tp
}

func TestDesirabilityPenalizesDistance(t *testing.T) {
	rs, tp := selectorFixture(t)
	pool := tp.Hosts()
	var near, far float64
	for _, h := range pool {
		d := rs.desirability(h, pool)
		switch h.Name {
		case "near1":
			near = d
		case "far1":
			far = d
		}
	}
	// Same speed, same availability; the far host's slow WAN must make it
	// less desirable to a border-exchanging application.
	if far >= near {
		t.Fatalf("far host desirability %v >= near %v", far, near)
	}
}

func TestOrderChainKeepsCloseHostsAdjacent(t *testing.T) {
	rs, tp := selectorFixture(t)
	chain := rs.orderChain(tp.Hosts())
	if len(chain) != 3 {
		t.Fatalf("chain %v", chain)
	}
	// The far host must sit at an end of the chain, never between the two
	// near hosts.
	if chain[1].Name == "far1" {
		t.Fatalf("far host placed mid-chain: %v %v %v", chain[0].Name, chain[1].Name, chain[2].Name)
	}
}

func TestOrderChainDeterministic(t *testing.T) {
	rs, tp := selectorFixture(t)
	a := rs.orderChain(tp.Hosts())
	b := rs.orderChain(tp.Hosts())
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("chain order not deterministic: %v vs %v", a, b)
		}
	}
}

func TestCandidatesExhaustiveSmallPool(t *testing.T) {
	rs, tp := selectorFixture(t)
	sets := rs.candidates(tp.Hosts(), 0)
	if len(sets) != 7 { // 2^3 - 1
		t.Fatalf("candidate sets %d, want 7", len(sets))
	}
	// Every set is non-empty and contains distinct hosts.
	for _, set := range sets {
		seen := map[string]bool{}
		for _, h := range set {
			if seen[h.Name] {
				t.Fatalf("duplicate host in set: %v", set)
			}
			seen[h.Name] = true
		}
		if len(set) == 0 {
			t.Fatal("empty candidate set")
		}
	}
}

func TestCandidatesCap(t *testing.T) {
	rs, tp := selectorFixture(t)
	sets := rs.candidates(tp.Hosts(), 2)
	if len(sets) != 2 {
		t.Fatalf("capped candidates %d, want 2", len(sets))
	}
}

func TestCandidatesPrefixLargePool(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 4, PerCluster: 4, Seed: 1, Quiet: true})
	rs := &resourceSelector{tp: tp, info: OracleInformation(tp)}
	sets := rs.candidates(tp.Hosts(), 0)
	if len(sets) != 16 {
		t.Fatalf("16-host pool candidates %d, want 16 prefixes", len(sets))
	}
	for k, set := range sets {
		if len(set) != k+1 {
			t.Fatalf("prefix %d has %d hosts", k, len(set))
		}
	}
}

// TestCandidatesMatchLegacyConstruction pins the optimized exhaustive
// enumeration (precomputed eff/cost matrices, bitmask subsets, index-based
// chaining) to candidatesDirect — the legacy per-set-query construction —
// on both a hand-built two-site topology and a loaded cluster-of-clusters
// pool. This equivalence is what lets liveAgentSchedule serve as a
// bit-identical sequential reference for the parallel engine.
func TestCandidatesMatchLegacyConstruction(t *testing.T) {
	check := func(name string, rs *resourceSelector, pool []*grid.Host, maxSets int) {
		t.Helper()
		got := rs.candidates(pool, maxSets)
		want := rs.candidatesDirect(pool, maxSets)
		if len(got) != len(want) {
			t.Fatalf("%s: %d sets, want %d", name, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: set %d has %d hosts, want %d", name, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j].Name != want[i][j].Name {
					t.Fatalf("%s: set %d diverged at %d: %s vs %s", name, i, j, got[i][j].Name, want[i][j].Name)
				}
			}
		}
	}
	rs, tp := selectorFixture(t)
	check("two-site", rs, tp.Hosts(), 0)
	check("two-site-capped", rs, tp.Hosts(), 3)

	eng := sim.NewEngine()
	ctp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 3, PerCluster: 3, Seed: 7, Quiet: true})
	crs := &resourceSelector{tp: ctp, info: OracleInformation(ctp)}
	check("cluster-9host", crs, ctp.Hosts(), 0)
}

// desirability scores one host the way candidates ranks the pool —
// forecast deliverable speed discounted by its mean network distance to
// the rest of the pool — querying the information source directly. It is
// candidatesDirect's ranking key.
func (rs *resourceSelector) desirability(h *grid.Host, pool []*grid.Host) float64 {
	eff := h.Speed * rs.info.Availability(h.Name)
	// Mean logical distance to the other pool members: seconds to move a
	// nominal 1 MB border to each.
	if len(pool) <= 1 {
		return eff
	}
	dist := 0.0
	for _, o := range pool {
		if o.Name == h.Name {
			continue
		}
		bw := rs.info.RouteBandwidth(h.Name, o.Name)
		if bw <= 0 {
			bw = 1e-6
		}
		dist += rs.info.RouteLatency(h.Name, o.Name) + 1.0/bw
	}
	dist /= float64(len(pool) - 1)
	return eff / (1 + dist)
}

// candidatesDirect is the test oracle for candidates: it enumerates
// resource sets the way the pre-snapshot engine did — build each subset,
// rank by aggregate desirability, and run every set through orderChain,
// re-querying the information source for the same availability and
// route values on every set. Its output must be bit-identical to
// candidates (TestCandidatesMatchLegacyConstruction), and because it
// reads the live source it is also the selector of the live-source
// sequential reference, liveAgentSchedule.
func (rs *resourceSelector) candidatesDirect(pool []*grid.Host, maxSets int) [][]*grid.Host {
	if len(pool) == 0 {
		return nil
	}
	des := make(map[string]float64, len(pool))
	for _, h := range pool {
		des[h.Name] = rs.desirability(h, pool)
	}
	ranked := append([]*grid.Host(nil), pool...)
	sort.Slice(ranked, func(i, j int) bool {
		di, dj := des[ranked[i].Name], des[ranked[j].Name]
		if di != dj {
			return di > dj
		}
		return ranked[i].Name < ranked[j].Name
	})

	var sets [][]*grid.Host
	if len(ranked) <= maxExhaustiveHosts {
		n := len(ranked)
		for mask := 1; mask < 1<<n; mask++ {
			var set []*grid.Host
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					set = append(set, ranked[b])
				}
			}
			sets = append(sets, set)
		}
		// Prefer larger aggregate desirability first so a cap keeps the
		// most promising sets.
		agg := make([]float64, len(sets))
		for i, set := range sets {
			sum := 0.0
			for _, h := range set {
				sum += des[h.Name]
			}
			agg[i] = sum
		}
		order := make([]int, len(sets))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return agg[order[i]] > agg[order[j]] })
		sorted := make([][]*grid.Host, len(sets))
		for i, idx := range order {
			sorted[i] = sets[idx]
		}
		sets = sorted
	} else {
		for k := 1; k <= len(ranked); k++ {
			sets = append(sets, append([]*grid.Host(nil), ranked[:k]...))
		}
	}
	if maxSets > 0 && len(sets) > maxSets {
		sets = sets[:maxSets]
	}
	for i, set := range sets {
		sets[i] = rs.orderChain(set)
	}
	return sets
}

func TestCandidatesPreferLoadedPoolShift(t *testing.T) {
	// A loaded near host should rank below an equally fast idle one.
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	tp.AddHost(grid.HostSpec{Name: "busy", Speed: 40, MemoryMB: 256, Load: load.Constant(4)})
	tp.AddHost(grid.HostSpec{Name: "idle", Speed: 40, MemoryMB: 256})
	l := tp.AddLink(grid.LinkSpec{Name: "lan", Latency: 0.001, Bandwidth: 10, Dedicated: true})
	tp.Attach("busy", l)
	tp.Attach("idle", l)
	tp.Finalize()
	rs := &resourceSelector{tp: tp, info: OracleInformation(tp)}
	sets := rs.candidates(tp.Hosts(), 1)
	// The single best set is the full pool (most aggregate desirability);
	// within it the chain starts at the faster *deliverable* host.
	if sets[0][0].Name != "idle" {
		t.Fatalf("chain starts at %s, want idle", sets[0][0].Name)
	}
}
