package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/load"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// poolColsOf resolves pool's columns over info, as an Agent round
// resolves its own: through viewCols when info is a frozen view over
// pool, by raw reads (rawCols) otherwise.
func poolColsOf(tp *grid.Topology, info Information, pool []*grid.Host) *poolCols {
	task := hat.Jacobi2D(100, 1).Tasks[0]
	hp := newHostPool(tp, &task, &userspec.Spec{}, pool)
	if view, ok := info.(*InfoSnapshot); ok {
		return viewCols(hp, view, task.FlopPerUnit)
	}
	return rawCols(hp, info, task.FlopPerUnit)
}

// poolCandidates is the exhaustive enumeration (candidates) over pool's
// columns (poolColsOf), every chain mapped back to pool's hosts.
func poolCandidates(tp *grid.Topology, info Information, pool []*grid.Host, maxSets int) [][]*grid.Host {
	sets := candidates(poolColsOf(tp, info, pool), maxSets)
	out := make([][]*grid.Host, len(sets))
	for i, set := range sets {
		out[i] = hostChain(pool, set)
	}
	return out
}

// hostChain maps a chain of pool indices to pool's hosts.
func hostChain(pool []*grid.Host, chain []int) []*grid.Host {
	out := make([]*grid.Host, len(chain))
	for i, p := range chain {
		out[i] = pool[p]
	}
	return out
}

// rawCols resolves hp's columns straight from info by host name, with
// no frozen view between: every availability and route value reaches
// fill and the kernel exactly as the source reports it, NaN and
// negative values included.
func rawCols(hp *hostPool, info Information, flopPerUnit float64) *poolCols {
	c := newPoolCols(hp, func(i, j int) (lat, bw float64) {
		a, b := hp.hosts[i].Name, hp.hosts[j].Name
		return info.RouteLatency(a, b), info.RouteBandwidth(a, b)
	})
	for i, h := range hp.hosts {
		c.avail[i] = info.Availability(h.Name)
	}
	c.fill(flopPerUnit)
	return c
}

// directSelector is the name-keyed Resource Selector oracle: every
// value it reads is queried from info by host name, per set.
type directSelector struct{ info Information }

// selectorFixture builds a two-site topology: two fast hosts on a fast
// local link, one fast host behind a slow WAN.
func selectorFixture(t *testing.T) (directSelector, *grid.Topology) {
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
	return directSelector{OracleInformation(tp)}, tp
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

// TestOrderChainKeepsCloseHostsAdjacent checks the layout property
// both on the oracle (orderChain) and on the pool model's layout.
func TestOrderChainKeepsCloseHostsAdjacent(t *testing.T) {
	rs, tp := selectorFixture(t)
	pool := tp.Hosts()
	for _, chain := range [][]*grid.Host{rs.orderChain(pool), hostChain(pool, buildSelModel(poolColsOf(tp, rs.info, pool), true).chain([]int{0, 1, 2}))} {
		if len(chain) != 3 {
			t.Fatalf("chain %v", chain)
		}
		// The far host must sit at an end of the chain, never between the
		// two near hosts.
		if chain[1].Name == "far1" {
			t.Fatalf("far host placed mid-chain: %v %v %v", chain[0].Name, chain[1].Name, chain[2].Name)
		}
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
	sets := poolCandidates(tp, rs.info, tp.Hosts(), 0)
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
	sets := poolCandidates(tp, rs.info, tp.Hosts(), 2)
	if len(sets) != 2 {
		t.Fatalf("capped candidates %d, want 2", len(sets))
	}
}

func TestCandidatesPrefixLargePool(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 4, PerCluster: 4, Seed: 1, Quiet: true})
	sets := poolCandidates(tp, OracleInformation(tp), tp.Hosts(), 0)
	if len(sets) != 16 {
		t.Fatalf("16-host pool candidates %d, want 16 prefixes", len(sets))
	}
	for k, set := range sets {
		if len(set) != k+1 {
			t.Fatalf("prefix %d has %d hosts", k, len(set))
		}
	}
}

// TestCandidatesMatchLegacyConstruction pins the exhaustive enumeration
// (the pool model's tables, bitmask subsets over ranking positions, the
// model's one chain layout) to candidatesDirect — the legacy per-set-query
// construction with orderChain's name-keyed layout — chain for chain: on a
// hand-built two-site topology, quiet and loaded cluster-of-clusters
// pools of 9 and 12 hosts (all 4,095 sets of the loaded one, and a
// capped run), a 32-host prefix-fallback pool, and a 128-host pool
// whose selector reads the routes roundSnapshot composes on demand past
// lazySnapshotThreshold. This equivalence is what lets liveAgentSchedule
// serve as a bit-identical sequential reference for the parallel engine.
func TestCandidatesMatchLegacyConstruction(t *testing.T) {
	check := func(name string, tp *grid.Topology, info Information, pool []*grid.Host, maxSets, wantSets int) {
		t.Helper()
		got := poolCandidates(tp, info, pool, maxSets)
		want := directSelector{info}.candidatesDirect(pool, maxSets)
		if len(got) != len(want) || len(got) != wantSets {
			t.Fatalf("%s: %d sets, oracle %d, want %d", name, len(got), len(want), wantSets)
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
	check("two-site", tp, rs.info, tp.Hosts(), 0, 7)
	check("two-site-capped", tp, rs.info, tp.Hosts(), 3, 3)

	eng := sim.NewEngine()
	ctp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 3, PerCluster: 3, Seed: 7, Quiet: true})
	check("cluster-9host", ctp, OracleInformation(ctp), ctp.Hosts(), 0, 511)

	ltp, linfo := buildPool(t, 3, 4, 11)
	lpool := ltp.Hosts()
	lview := roundSnapshot(linfo, lpool)
	check("loaded-12host", ltp, lview, lpool, 0, 4095)
	check("loaded-12host-capped", ltp, lview, lpool, 100, 100)

	for _, p := range []struct {
		clusters, per, maxSets, want int
	}{{4, 8, 0, 32}, {8, 16, 0, 128}, {8, 16, 40, 40}} {
		eng := sim.NewEngine()
		gtp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: p.clusters, PerCluster: p.per, Seed: 5})
		if err := eng.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		pool := gtp.Hosts()
		view := roundSnapshot(OracleInformation(gtp), pool)
		if lazy := view.Stats().Pairs == 0; lazy != (len(pool) > lazySnapshotThreshold) {
			t.Fatalf("%d-host pool: routes composed on demand %v", len(pool), lazy)
		}
		check(fmt.Sprintf("prefix-%dhost-cap%d", len(pool), p.maxSets), gtp, view, pool, p.maxSets, p.want)
	}
}

// desirability scores one host the way candidates ranks the pool —
// forecast deliverable speed discounted by its mean network distance to
// the rest of the pool — querying the information source directly. It is
// candidatesDirect's ranking key.
func (rs directSelector) desirability(h *grid.Host, pool []*grid.Host) float64 {
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
func (rs directSelector) candidatesDirect(pool []*grid.Host, maxSets int) [][]*grid.Host {
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

// orderChain is the name-keyed strip-chain construction: greedy nearest
// neighbor by route transfer cost, seeded at the fastest host, every
// value queried from the information source per set. It is
// candidatesDirect's layout, the oracle for selModel.layout.
func (rs directSelector) orderChain(set []*grid.Host) []*grid.Host {
	eff := func(h *grid.Host) float64 { return h.Speed * rs.info.Availability(h.Name) }
	remaining := append([]*grid.Host(nil), set...)
	sort.Slice(remaining, func(i, j int) bool {
		ei, ej := eff(remaining[i]), eff(remaining[j])
		if ei != ej {
			return ei > ej
		}
		return remaining[i].Name < remaining[j].Name
	})
	if len(remaining) <= 2 {
		return remaining
	}
	chain := []*grid.Host{remaining[0]}
	remaining = remaining[1:]
	for len(remaining) > 0 {
		cur := chain[len(chain)-1]
		bestIdx, bestCost := 0, math.Inf(1)
		for i, h := range remaining {
			bw := rs.info.RouteBandwidth(cur.Name, h.Name)
			if bw <= 0 {
				bw = 1e-6
			}
			cost := rs.info.RouteLatency(cur.Name, h.Name) + 1.0/bw
			if cost < bestCost || (cost == bestCost && h.Name < remaining[bestIdx].Name) {
				bestIdx, bestCost = i, cost
			}
		}
		chain = append(chain, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chain
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
	sets := poolCandidates(tp, OracleInformation(tp), tp.Hosts(), 1)
	// The single best set is the full pool (most aggregate desirability);
	// within it the chain starts at the faster *deliverable* host.
	if sets[0][0].Name != "idle" {
		t.Fatalf("chain starts at %s, want idle", sets[0][0].Name)
	}
}

// legacyChain is selModel.chain as it stood before the index-based
// model, kept as the greedy oracle's layout: membership through a map
// probe over the eff order, then either the exact-cost nearest-neighbor
// pass or a sort.SliceStable by each site's first appearance.
func legacyChain(m *selModel, pool []*grid.Host, idxs []int) []*grid.Host {
	if len(idxs) == 0 {
		return nil
	}
	if len(idxs) == 1 {
		return []*grid.Host{pool[idxs[0]]}
	}
	member := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		member[i] = true
	}
	ordered := make([]int, 0, len(idxs))
	for _, i := range m.effOrder {
		if member[i] {
			ordered = append(ordered, i)
		}
	}
	if m.cost != nil {
		chain := make([]*grid.Host, 1, len(ordered))
		cur := ordered[0]
		chain[0] = pool[cur]
		rem := append([]int(nil), ordered[1:]...)
		for len(rem) > 0 {
			bestI, bestCost := 0, math.Inf(1)
			for i, idx := range rem {
				if c := m.cost[cur][idx]; c < bestCost || (c == bestCost && pool[idx].Name < pool[rem[bestI]].Name) {
					bestI, bestCost = i, c
				}
			}
			cur = rem[bestI]
			chain = append(chain, pool[cur])
			rem = append(rem[:bestI], rem[bestI+1:]...)
		}
		return chain
	}
	siteRank := make(map[string]int)
	for _, i := range ordered {
		site := pool[i].Site
		if _, ok := siteRank[site]; !ok {
			siteRank[site] = len(siteRank)
		}
	}
	sort.SliceStable(ordered, func(a, b int) bool {
		return siteRank[pool[ordered[a]].Site] < siteRank[pool[ordered[b]].Site]
	})
	chain := make([]*grid.Host, len(ordered))
	for i, idx := range ordered {
		chain[i] = pool[idx]
	}
	return chain
}

// legacyGreedy is the greedy selector's enumeration as it stood before
// the index-based model: prefixes grown by add and cloned per emit,
// every membership deduplicated through a map of canonical keys before
// the maxSets cap, chains laid out by legacyChain.
func legacyGreedy(m *selModel, pool []*grid.Host, maxSets int) (chains [][]*grid.Host, dropped int, capped bool) {
	seen := make(map[string]bool)
	emit := func(s *selState) {
		if seen[s.key()] {
			return
		}
		seen[s.key()] = true
		if maxSets > 0 && len(chains) >= maxSets {
			dropped++
			capped = true
			return
		}
		chains = append(chains, legacyChain(m, pool, s.idxs))
	}
	prefix := newSelState(m.n)
	next := 0
	for _, size := range prefixSizes(m.n) {
		for len(prefix.idxs) < size {
			m.add(prefix, m.rank[next])
			next++
		}
		emit(prefix.clone())
	}
	grown := newSelState(m.n)
	m.add(grown, m.rank[0])
	limit := min(m.n, maxGreedyGrowth)
	bestSeen := m.score(grown)
	worse := 0
	for len(grown.idxs) < limit {
		k := len(grown.idxs)
		sd := sumDist(m, grown)
		bestIdx, bestScore := -1, 0.0
		for i := 0; i < m.n; i++ {
			if grown.member[i] {
				continue
			}
			var dp float64
			if m.cost != nil {
				dp = m.addPairDelta(grown, i)
			} else {
				dp = (m.dist[i]*float64(k) + sd) / 2
			}
			sc := surrogate(grown.sumEff+m.eff[i], grown.sumPair+dp, k+1)
			if bestIdx < 0 || sc < bestScore ||
				(sc == bestScore && pool[i].Name < pool[bestIdx].Name) {
				bestIdx, bestScore = i, sc
			}
		}
		if bestIdx < 0 {
			break
		}
		m.add(grown, bestIdx)
		stop := false
		if bestScore < bestSeen {
			bestSeen, worse = bestScore, 0
		} else if worse++; worse >= greedyPatience {
			stop = true
		}
		size := len(grown.idxs)
		if size <= greedyEmitDense || size%greedyEmitStride == 0 || size == limit || stop {
			emit(grown.clone())
		}
		if stop {
			break
		}
	}
	return chains, dropped, capped
}

// namesOnly hides a view's dense host index, so a selector model built
// over it prices every pair through the name-keyed Information calls.
type namesOnly struct{ Information }

// TestGreedyMatchesLegacy pins the greedy selector — mark-slice
// membership, counting sort by site, O(1) prefix dedup, prefixes as
// ranking slices, pairs priced by dense view index — to legacyGreedy
// over a model priced by host name: the same chains host for host, the
// same truncation, and bit-identical model distances. Pools straddle
// the exact/sampled boundary (48 and 65 hosts) and reach 2048; one
// host's availability is forced to NaN, 0 and +Inf; caps land inside
// the prefix ladder and inside the grown family, where a grown set
// equal to a prefix must be deduplicated before it counts as dropped.
// The quiet pools put whole sites on one (dist, eff) pair, so the
// bounded growth scan's tie-run skip and name tie-break decide most
// steps there.
func TestGreedyMatchesLegacy(t *testing.T) {
	for _, p := range []struct {
		clusters, per int
		quiet         bool
	}{{3, 16, false}, {5, 13, false}, {32, 16, false}, {128, 16, false},
		{5, 13, true}, {32, 16, true}, {128, 16, true}} {
		tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{
			Clusters: p.clusters, PerCluster: p.per, Seed: 3, Quiet: p.quiet})
		pool := tp.Hosts()
		kind := "loaded"
		if p.quiet {
			kind = "quiet"
		}
		overlay := map[string]float64{}
		info := NewOverlayInformation(OracleInformation(tp), overlay)
		odd := pool[len(pool)/3].Name
		for _, avail := range []float64{-1, math.NaN(), 0, math.Inf(1)} {
			clear(overlay)
			if avail >= 0 || math.IsNaN(avail) {
				overlay[odd] = avail
			}
			view := roundSnapshot(info, pool)
			for _, maxSets := range []int{0, 40, 60} {
				name := fmt.Sprintf("%dhost-%s/avail=%v/cap=%d", len(pool), kind, avail, maxSets)
				g := &greedySelector{cols: poolColsOf(tp, view, pool), maxSets: maxSets}
				var got [][]*grid.Host
				for set := range g.SelectSeq() {
					got = append(got, hostChain(pool, set))
				}
				gotDropped, gotCapped := g.Truncated()

				lm := buildSelModel(poolColsOf(tp, namesOnly{view}, pool), len(pool) <= selExactPairHosts)
				want, wantDropped, wantCapped := legacyGreedy(lm, pool, maxSets)
				m := buildSelModel(poolColsOf(tp, view, pool), len(pool) <= selExactPairHosts)
				for i := range m.dist {
					if math.Float64bits(m.dist[i]) != math.Float64bits(lm.dist[i]) {
						t.Fatalf("%s: host %d distance %v by index, %v by name", name, i, m.dist[i], lm.dist[i])
					}
				}
				if len(got) != len(want) || gotDropped != wantDropped || gotCapped != wantCapped {
					t.Fatalf("%s: %d sets (dropped %d, capped %v), legacy %d (dropped %d, capped %v)",
						name, len(got), gotDropped, gotCapped, len(want), wantDropped, wantCapped)
				}
				for s := range got {
					if !slices.Equal(got[s], want[s]) {
						t.Fatalf("%s: set %d differs from legacy", name, s)
					}
				}
			}
		}
	}
}

// TestSkippedPositions pins the trace indices of a bounded walk's kept
// sets: SkippedSets.positions must place every kept mask where the
// full enumeration order puts it, with aggregate ties and NaN
// aggregates, for every share of masks kept.
func TestSkippedPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		agg := make([]float64, 1<<(1+rng.Intn(maxExhaustiveHosts)))
		for mask := 1; mask < len(agg); mask++ {
			switch rng.Intn(8) {
			case 0:
				agg[mask] = math.NaN()
			case 1, 2:
				agg[mask] = float64(rng.Intn(3))
			default:
				agg[mask] = rng.Float64()
			}
		}
		full := enumOrder(agg)
		at := make(map[int]int, len(full))
		for i, mask := range full {
			at[mask] = i
		}
		keep := rng.Float64()
		skip := SkippedSets{agg: agg}
		for mask := 1; mask < len(agg); mask++ {
			if rng.Float64() < keep {
				skip.kept = append(skip.kept, mask)
			}
		}
		sortMasks(skip.kept, agg)
		for j, pos := range skip.positions() {
			if want := at[skip.kept[j]]; pos != want {
				t.Fatalf("trial %d: kept mask %d at position %d, enumeration puts it at %d", trial, skip.kept[j], pos, want)
			}
		}
	}
}

// TestSortEnumMatchesSortMasks checks the integer-key sort against the
// comparator sort it replaces on random aggregates with ties, ±0,
// ±Inf, NaNs of either sign, negatives and neighbours a few ulps apart
// (which share a packed key and exercise the re-sorted runs), over
// random subsets of masks in random order.
func TestSortEnumMatchesSortMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), negNaN, -1, 1}
	for trial := 0; trial < 300; trial++ {
		agg := make([]float64, 1<<(1+rng.Intn(maxExhaustiveHosts)))
		base := rng.Float64() * 10
		for mask := 1; mask < len(agg); mask++ {
			switch rng.Intn(10) {
			case 0:
				agg[mask] = special[rng.Intn(len(special))]
			case 1, 2:
				agg[mask] = float64(rng.Intn(3))
			case 3, 4:
				agg[mask] = math.Float64frombits(math.Float64bits(base) + uint64(rng.Intn(1<<13)))
			case 5:
				agg[mask] = -rng.Float64()
			default:
				agg[mask] = rng.Float64() * 10
			}
		}
		var masks []int
		keep := rng.Float64()
		for mask := 1; mask < len(agg); mask++ {
			if rng.Float64() < keep {
				masks = append(masks, mask)
			}
		}
		rng.Shuffle(len(masks), func(i, j int) { masks[i], masks[j] = masks[j], masks[i] })
		want := slices.Clone(masks)
		sortMasks(want, agg)
		sortEnum(masks, agg)
		if !slices.Equal(masks, want) {
			for i := range masks {
				if masks[i] != want[i] {
					t.Fatalf("trial %d: position %d holds mask %d (agg %v), sortMasks puts mask %d (agg %v) there",
						trial, i, masks[i], agg[masks[i]], want[i], agg[want[i]])
				}
			}
		}
	}
}
