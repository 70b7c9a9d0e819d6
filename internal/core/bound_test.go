package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
								p.clusters, p.per, seed, m, n, chainNames(r.Pool, set), lb, c.Score)
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
	pool := tp.Hosts()
	cols := rawCols(newHostPool(tp, task, &userspec.Spec{}, pool), info, task.FlopPerUnit)
	planned, best := 0, math.Inf(1)
	for _, c := range cands {
		set := make([]int, len(c.Hosts))
		for i, name := range c.Hosts {
			set[i] = slices.IndexFunc(pool, func(h *grid.Host) bool { return h.Name == name })
		}
		if rate, _ := cols.boundTerms(set); rateBound(rate, n, max(tpl.Iterations, 1)) <= best {
			planned++
		}
		best = min(best, c.Score)
	}
	return planned
}

// TestBoundedWalkExact is the exactness property of the bounded walk
// (boundedSubsets): on 1- to 12-host NWS pools under
// every metric, with one host's availability overlaid by a hostile value
// (NaN, 0, +Inf, 1e300, or none) and MaxResourceSets uncapped, capped
// at exactly every subset, or capped below it, Schedule must equal the
// winner of the unpruned full walk apart from CandidatesPlanned, and
// fail with the same error when nothing is feasible. On every feasible
// set of the full walk the round's bound must not exceed the score, the
// property the walk's strict prune rests on.
func TestBoundedWalkExact(t *testing.T) {
	metrics := []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost}
	hostile := []float64{math.NaN(), 0, math.Inf(1), 1e300}
	seeds := 21
	if testing.Short() {
		seeds = 4
	}
	rounds, skipped := 0, 0
	for seed := 0; seed < seeds; seed++ {
		tp, info := buildPool(t, 3, 4, int64(seed))
		hosts := tp.Hosts()
		rates := map[string]float64{}
		for i, h := range hosts {
			if i%4 != 3 {
				rates[h.Name] = 0.5 + 0.5*float64((i*7+seed)%9)
			}
		}
		for p := 1; p <= len(hosts); p++ {
			pool := make([]string, p)
			for j := range pool {
				pool[j] = hosts[(seed+j)%len(hosts)].Name
			}
			overlay := map[string]float64{}
			if v := (seed + p) % (len(hostile) + 1); v < len(hostile) {
				overlay[pool[(seed*5+p)%p]] = hostile[v]
			}
			view := NewOverlayInformation(info, overlay)
			n := []int{200, 600, 1500, 4000}[(seed+p)%4]
			all := 1<<p - 1
			for _, m := range metrics {
				for _, maxSets := range []int{0, all, all / 2} {
					if maxSets == all && seed%3 != 0 {
						continue
					}
					spec := &userspec.Spec{Metric: m, CostPerCPUHour: rates, Accessible: pool, MaxResourceSets: maxSets}
					a, err := NewAgent(tp, hat.Jacobi2D(n, 10), spec, view)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("seed %d, %d hosts, %v, n=%d, MaxResourceSets %d, overlay %v", seed, p, m, n, maxSets, overlay)
					cands, considered, rp, err := a.evaluate(n, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range cands {
						if lb := rp.boundSet(c.chain); lb > c.Score {
							t.Fatalf("%s: %v bound %.17g > score %.17g", name, chainNames(a.hp.hosts, c.chain), lb, c.Score)
						}
					}
					want, werr := a.pickBest(rp, cands, considered)
					got, gerr := a.Schedule(n)
					rounds++
					if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
						t.Fatalf("%s: Schedule error %v, full walk error %v", name, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if got.CandidatesPlanned < len(cands) {
						skipped++
					}
					got.CandidatesPlanned = want.CandidatesPlanned
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: Schedule diverged from the full walk\nfull:     %v\nschedule: %v", name, want, got)
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("no round of %d planned fewer sets than the full walk", rounds)
	}
	t.Logf("%d rounds, %d planned fewer sets than the full walk", rounds, skipped)
}
