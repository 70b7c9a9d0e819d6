package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/nws"
	"apples/internal/react"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// buildPool constructs a warmed, loaded topology with an NWS for
// determinism tests. clusters == 0 builds the 8-host SDSC/PCL testbed.
func buildPool(t *testing.T, clusters, per int, seed int64) (*grid.Topology, Information) {
	t.Helper()
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	var tp *grid.Topology
	if clusters == 0 {
		tp = grid.SDSCPCL(eng, grid.TestbedOptions{Seed: seed})
	} else {
		tp = grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: clusters, PerCluster: per, Seed: seed})
	}
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	return tp, NWSInformation(svc, tp)
}

// TestParallelMatchesSequential is the engine's determinism contract:
// across seeds and pool sizes, snapshotted evaluation must produce a
// Schedule bit-identical to the sequential reference loop that queries
// the live information source directly (liveAgentSchedule). The 64-host
// pool is the largest one evaluated inline, so its pruned planned count
// must equal the sequential pruning replay's; the 72-host pool takes the
// parallel worker path, where how many sets prune depends on timing.
func TestParallelMatchesSequential(t *testing.T) {
	configs := []struct {
		name          string
		clusters, per int
	}{
		{"sdscpcl-8host", 0, 0},
		{"cluster-12host", 3, 4},
		{"cluster-24host", 6, 4},
		{"cluster-64host", 8, 8},
		{"cluster-72host", 9, 8},
	}
	for _, cfg := range configs {
		for _, seed := range []int64{1, 7, 23} {
			tp, info := buildPool(t, cfg.clusters, cfg.per, seed)
			tpl := hat.Jacobi2D(600, 10)

			par, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
			if err != nil {
				t.Fatal(err)
			}

			want, wantCands, err := liveAgentSchedule(tp, tpl, &userspec.Spec{}, info, 25, 600)
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", cfg.name, seed, err)
			}
			got, err := par.Schedule(600)
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", cfg.name, seed, err)
			}
			if len(tp.Hosts()) <= lazySnapshotThreshold {
				if wantPlanned := prunedPlanned(tp, tpl, info, 600, wantCands); got.CandidatesPlanned != wantPlanned {
					t.Fatalf("%s seed %d: planned %d sets, sequential pruning plans %d",
						cfg.name, seed, got.CandidatesPlanned, wantPlanned)
				}
			} else if got.CandidatesPlanned < 1 || got.CandidatesPlanned > want.CandidatesPlanned {
				t.Fatalf("%s seed %d: planned %d sets, want 1..%d",
					cfg.name, seed, got.CandidatesPlanned, want.CandidatesPlanned)
			}
			got.CandidatesPlanned = want.CandidatesPlanned
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed %d: parallel schedule diverged\nseq: %v\npar: %v", cfg.name, seed, want, got)
			}
		}
	}
}

// TestParallelExplainedMatchesSequential extends the contract to the
// explain surface: the ranked candidate slices must agree exactly, on
// inline pools (12 hosts, the 64-host boundary) and on a parallel one
// (72 hosts).
func TestParallelExplainedMatchesSequential(t *testing.T) {
	for _, cfg := range []struct{ clusters, per int }{{3, 4}, {8, 8}, {9, 8}} {
		tp, info := buildPool(t, cfg.clusters, cfg.per, 5)
		tpl := hat.Jacobi2D(500, 10)
		par, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		_, seqCands, err := liveAgentSchedule(tp, tpl, &userspec.Spec{}, info, 25, 500)
		if err != nil {
			t.Fatal(err)
		}
		want := rankCandidates(seqCands, 0)
		_, got, err := par.ScheduleExplained(500, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d hosts: explained candidates diverged: %d vs %d entries",
				cfg.clusters*cfg.per, len(want), len(got))
		}
	}
}

// TestPruningPreservesSelection is the pruning property: across seeds,
// the pruned Schedule must pick exactly the schedule the unpruned
// ScheduleExplained round picks — only CandidatesPlanned may shrink
// (pruned sets are never planned). The 12-host pool is evaluated
// inline, so how many sets prune is the same every round.
func TestPruningPreservesSelection(t *testing.T) {
	prunedAny := false
	for _, seed := range []int64{2, 11, 29, 47} {
		tp, info := buildPool(t, 3, 4, seed)
		tpl := hat.Jacobi2D(800, 20)
		a, err := NewAgent(tp, tpl, &userspec.Spec{Metric: userspec.MinExecutionTime}, info)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := a.ScheduleExplained(800, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Schedule(800)
		if err != nil {
			t.Fatal(err)
		}
		if got.CandidatesPlanned > want.CandidatesPlanned {
			t.Fatalf("seed %d: pruning planned more sets (%d) than exhaustive (%d)",
				seed, got.CandidatesPlanned, want.CandidatesPlanned)
		}
		prunedAny = prunedAny || got.CandidatesPlanned < want.CandidatesPlanned
		for r := 0; r < 3; r++ {
			again, err := a.Schedule(800)
			if err != nil {
				t.Fatal(err)
			}
			if again.CandidatesPlanned != got.CandidatesPlanned {
				t.Fatalf("seed %d round %d: pruned round planned %d sets, first round %d",
					seed, r, again.CandidatesPlanned, got.CandidatesPlanned)
			}
		}
		// Everything except the planned count must be identical.
		got.CandidatesPlanned = want.CandidatesPlanned
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: pruning changed the selection\nplain:  %v\npruned: %v", seed, want, got)
		}
	}
	if !prunedAny {
		t.Fatal("Schedule pruned no set on any seed")
	}

	// A spill factor below 1 prices spilled strips below the bound's
	// no-spill floor, so such an agent must not prune.
	tp, info := buildPool(t, 3, 4, 2)
	a, err := NewAgent(tp, hat.Jacobi2D(800, 20), &userspec.Spec{}, info, WithSpillFactor(0.5))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := a.ScheduleExplained(800, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Schedule(800)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spill factor 0.5: Schedule pruned or diverged\nexplained: %+v\nschedule:  %+v", want, got)
	}
}

// TestConcurrentScheduleCalls drives one agent from multiple goroutines
// at once (run with -race): an agent must support concurrent scheduling
// rounds, and each must reach the same decision. The 72-host agents run
// every round on the parallel worker pool, with pruning sharing the
// incumbent across workers; the greedy one samples distances, so its
// rounds also share the pool's site layout.
func TestConcurrentScheduleCalls(t *testing.T) {
	for _, cfg := range []struct {
		clusters, per int
		sel           SelectorKind
	}{{3, 4, SelectorExhaustive}, {9, 8, SelectorExhaustive}, {9, 8, SelectorGreedy}} {
		tp, info := buildPool(t, cfg.clusters, cfg.per, 3)
		a, err := NewAgent(tp, hat.Jacobi2D(500, 10), &userspec.Spec{}, info, WithSelector(SelectorSpec{Kind: cfg.sel}))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := a.Schedule(500)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		scheds := make([]*Schedule, 6)
		errs := make([]error, 6)
		for i := range scheds {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				scheds[i], errs[i] = a.Schedule(500)
			}(i)
		}
		wg.Wait()
		for i, s := range scheds {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(s.Hosts, ref.Hosts) || s.PredictedTotal != ref.PredictedTotal {
				t.Fatalf("%d hosts, %s: concurrent round %d diverged: %v vs %v",
					cfg.clusters*cfg.per, cfg.sel, i, s, ref)
			}
		}
	}
}

// TestAgentOptions covers the functional-options surface: the spill
// factor comes from WithSpillFactor (default 25) and prices spills in
// the schedule.
func TestAgentOptions(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 1, Quiet: true})
	a, err := NewAgent(tp, hat.Jacobi2D(500, 10), &userspec.Spec{}, OracleInformation(tp),
		WithSpillFactor(40))
	if err != nil {
		t.Fatal(err)
	}
	if a.spillFactor != 40 {
		t.Fatalf("WithSpillFactor not applied: %v", a.spillFactor)
	}
	if _, err := a.Schedule(500); err != nil {
		t.Fatal(err)
	}
	b, err := NewAgent(tp, hat.Jacobi2D(500, 10), &userspec.Spec{}, OracleInformation(tp), WithSpillFactor(-1))
	if err != nil {
		t.Fatal(err)
	}
	if b.spillFactor != 25 {
		t.Fatalf("default spill factor %v, want 25", b.spillFactor)
	}
}

// TestSentinelErrors asserts the typed error surface: callers use
// errors.Is, never string matching.
func TestSentinelErrors(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 1, Quiet: true})

	// ErrNoFeasibleHosts: the spec excludes everything.
	a, err := NewAgent(tp, hat.Jacobi2D(500, 10),
		&userspec.Spec{Accessible: []string{"no-such-host"}}, OracleInformation(tp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Schedule(500); !errors.Is(err, ErrNoFeasibleHosts) {
		t.Fatalf("want ErrNoFeasibleHosts, got %v", err)
	}

	// ErrBadTemplate: a task-parallel template handed to the Jacobi
	// blueprint.
	if _, err := NewAgent(tp, hat.React3D(100), &userspec.Spec{}, OracleInformation(tp)); !errors.Is(err, ErrBadTemplate) {
		t.Fatalf("want ErrBadTemplate, got %v", err)
	}
	// ...and the Jacobi template handed to the pipeline blueprint.
	if _, err := NewPipelineAgent(tp, hat.Jacobi2D(500, 10), &userspec.Spec{}, OracleInformation(tp),
		react.Options{}); !errors.Is(err, ErrBadTemplate) {
		t.Fatalf("want ErrBadTemplate from pipeline, got %v", err)
	}

	// ErrNoFeasiblePlan: every host in the pool has zero deliverable
	// speed, so no candidate set can produce a plan.
	eng2 := sim.NewEngine()
	dead := grid.NewTopology(eng2)
	dead.AddHost(grid.HostSpec{Name: "dead1", Speed: 0, MemoryMB: 256})
	dead.AddHost(grid.HostSpec{Name: "dead2", Speed: 0, MemoryMB: 256})
	l := dead.AddLink(grid.LinkSpec{Name: "lan", Latency: 0.001, Bandwidth: 10, Dedicated: true})
	dead.Attach("dead1", l)
	dead.Attach("dead2", l)
	dead.Finalize()
	b, err := NewAgent(dead, hat.Jacobi2D(500, 10), &userspec.Spec{}, OracleInformation(dead))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Schedule(500); !errors.Is(err, ErrNoFeasiblePlan) {
		t.Fatalf("want ErrNoFeasiblePlan, got %v", err)
	}
}
