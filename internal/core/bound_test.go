package core

import (
	"math"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/userspec"
)

// TestLowerBoundNeverExceedsScore is the soundness property pruning
// rests on: for every feasible set of loaded SDSC/PCL and
// cluster-of-clusters pools, single hosts included, the round's metric
// bound is ≤ the score the strip kernel computes for that set, rounding
// included, under every metric. The pools carry uneven cost rates, with
// some hosts unpriced (priced as 1) and one priced at an explicit 0. A
// single host's time bound equals its score in exact arithmetic, so an
// unshaved bound can land an ulp above it; an incumbent inside that gap
// would prune the set that should win.
func TestLowerBoundNeverExceedsScore(t *testing.T) {
	pools := []struct{ clusters, per int }{{0, 0}, {3, 4}, {2, 4}, {3, 3}}
	metrics := []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost}
	sets := 0
	for _, p := range pools {
		for _, seed := range []int64{1, 2, 3, 4} {
			tp, info := buildPool(t, p.clusters, p.per, seed)
			rates := map[string]float64{}
			for i, h := range tp.Hosts() {
				switch {
				case i == 1:
					rates[h.Name] = 0
				case i%4 != 3:
					rates[h.Name] = 0.5 + 0.5*float64((i*7+int(seed))%9)
				}
			}
			for _, m := range metrics {
				for _, n := range []int{400, 800, 1600, 4000} {
					spec := &userspec.Spec{Metric: m, CostPerCPUHour: rates}
					a, err := NewAgent(tp, hat.Jacobi2D(n, 10), spec, info)
					if err != nil {
						t.Fatal(err)
					}
					r := a.round(a.newPricer(n), true)
					plan := r.Bind(roundSnapshot(info, r.Pool))
					for set := range plan.Sets {
						c, ok := plan.Evaluate(set)
						if !ok {
							continue
						}
						sets++
						if lb := plan.Bound(set); lb > c.Score {
							t.Errorf("%d×%d seed %d %s n=%d %v: bound %.17g > score %.17g",
								p.clusters, p.per, seed, m, n, c.names(), lb, c.Score)
						}
					}
				}
			}
		}
	}
	if sets == 0 {
		t.Fatal("no feasible set checked")
	}

	// Below a spill factor of 1 a spilled strip can run faster than its
	// points times P_i, so no metric gets a bound.
	tp, info := buildPool(t, 0, 0, 1)
	for _, m := range metrics {
		a, err := NewAgent(tp, hat.Jacobi2D(400, 10), &userspec.Spec{Metric: m}, info, WithSpillFactor(0.5))
		if err != nil {
			t.Fatal(err)
		}
		r := a.round(a.newPricer(400), true)
		if r.Bind(roundSnapshot(info, r.Pool)).Bound != nil {
			t.Errorf("%s: spill factor 0.5 round has a bound", m)
		}
	}
}

// prunedPlanned replays the Coordinator's inline pruning over the
// sequential oracle's feasible candidates, in enumeration order: a set
// is planned unless its compute bound exceeds the best score of the
// sets before it. A pruned set cannot lower that best score, so the
// replay needs only the feasible candidates.
func prunedPlanned(tp *grid.Topology, tpl *hat.Template, info Information, n int, cands []Candidate) int {
	task := &tpl.Tasks[0]
	cols := viewCols(newHostPool(tp, task, &userspec.Spec{}, tp.Hosts()), info, task.FlopPerUnit)
	planned, best := 0, math.Inf(1)
	for _, c := range cands {
		set := make([]*grid.Host, len(c.Hosts))
		for i, name := range c.Hosts {
			set[i] = tp.Host(name)
		}
		if rate, _ := cols.boundTerms(set); rateBound(rate, n, max(tpl.Iterations, 1)) <= best {
			planned++
		}
		best = min(best, c.Score)
	}
	return planned
}
