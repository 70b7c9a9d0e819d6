package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"apples/internal/grid"
	"apples/internal/sim"
)

// stepScore is a growth step's score for adding pool index i to s (k
// members whose dists sum to sd): the expression growStep prices.
func stepScore(m *selModel, s *selState, i, k int, sd float64) float64 {
	return surrogate(s.sumEff+m.eff[i], s.sumPair+(m.dist[i]*float64(k)+sd)/2, k+1)
}

// growAll runs the bounded growth scan from m.rank[0] to the growth cap
// (no patience stop), checking each step's winner against the full scan
// and calling check before each step.
func growAll(t *testing.T, name string, m *selModel, check func(g *growthScan, s *selState, k int, sd float64)) {
	t.Helper()
	s := newSelState(m.n)
	m.add(s, m.rank[0])
	g := newGrowthScan(m, s)
	if g == nil {
		t.Fatalf("%s: finite non-negative model fell back to the full scan", name)
	}
	for len(s.idxs) < min(m.n, maxGreedyGrowth) {
		k, sd := len(s.idxs), sumDist(m, s)
		check(g, s, k, sd)
		got, gotScore := g.next(m, s, k, sd)
		want, wantScore := m.growStep(s, k)
		if got != want || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
			t.Fatalf("%s: step %d adds %d (score %v), full scan %d (score %v)", name, k, got, gotScore, want, wantScore)
		}
		m.add(s, got)
		g.took(m, s, got)
	}
}

// TestGrowthBoundNeverExceedsScore pins the soundness of the bounded
// growth scan: at every step of the 512- and 2048-host loaded and quiet
// pools, every block's bound is at most the computed score of every
// non-member in that block, a block marked exhausted has no non-member
// left, and the step's winner is the full scan's. A model with a NaN,
// negative or infinite eff or dist must take the full-scan fallback.
func TestGrowthBoundNeverExceedsScore(t *testing.T) {
	for _, p := range []struct {
		clusters, per int
		quiet         bool
	}{{32, 16, false}, {32, 16, true}, {128, 16, false}, {128, 16, true}} {
		tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{
			Clusters: p.clusters, PerCluster: p.per, Seed: 3, Quiet: p.quiet})
		pool := tp.Hosts()
		m := buildSelModel(poolColsOf(tp, roundSnapshot(OracleInformation(tp), pool), pool), len(pool) <= selExactPairHosts)
		name := fmt.Sprintf("%dhost/quiet=%v", len(pool), p.quiet)
		growAll(t, name, m, func(g *growthScan, s *selState, k int, sd float64) {
			for b := range g.blocks {
				exhausted := g.blocks[b].maxEff < 0
				bound := g.bound(s, b, k, sd)
				for _, i := range g.block(b) {
					if s.member[i] {
						continue
					}
					if exhausted {
						t.Fatalf("%s: step %d: block %d marked exhausted holds non-member %d", name, k, b, i)
					}
					if sc := stepScore(m, s, i, k, sd); bound > sc {
						t.Fatalf("%s: step %d: block %d bound %.17g > score %.17g of host %d", name, k, b, bound, sc, i)
					}
				}
			}
		})

		seed := newSelState(m.n)
		m.add(seed, m.rank[0])
		odd := m.n / 3
		for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
			for _, col := range []struct {
				name string
				vals []float64
			}{{"dist", m.dist}, {"eff", m.eff}} {
				keep := col.vals[odd]
				col.vals[odd] = bad
				if newGrowthScan(m, seed) != nil {
					t.Errorf("%s: %s=%v on host %d must fall back to the full scan", name, col.name, bad, odd)
				}
				col.vals[odd] = keep
			}
		}
	}
}

// TestGrowthScanMatchesFullScan drives the bounded scan over synthetic
// models built for float ties: one member's eff absorbs every other
// host's, so hosts with equal dist but different eff score the same and
// only the name tie-break separates them. Every step must add the full
// scan's winner.
func TestGrowthScanMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 70 + rng.Intn(200)
		m := &selModel{n: n, eff: make([]float64, n), dist: make([]float64, n),
			nameRank: rng.Perm(n), rank: make([]int, n)}
		for i := range n {
			m.eff[i] = float64(1 + rng.Intn(3))
			m.dist[i] = float64(rng.Intn(3))
			m.rank[i] = i
		}
		if seed%2 == 0 {
			m.eff[0] = 1e17 // absorbs eff 1..3: every equal-dist pair ties
		}
		growAll(t, fmt.Sprintf("seed %d", seed), m, func(*growthScan, *selState, int, float64) {})
	}
}
