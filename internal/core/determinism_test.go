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
// across seeds and pool sizes, parallel snapshotted evaluation must
// produce a Schedule bit-identical to the sequential reference loop that
// queries the live information source directly (liveAgentSchedule).
func TestParallelMatchesSequential(t *testing.T) {
	configs := []struct {
		name          string
		clusters, per int
	}{
		{"sdscpcl-8host", 0, 0},
		{"cluster-12host", 3, 4},
		{"cluster-24host", 6, 4},
	}
	for _, cfg := range configs {
		for _, seed := range []int64{1, 7, 23} {
			tp, info := buildPool(t, cfg.clusters, cfg.per, seed)
			tpl := hat.Jacobi2D(600, 10)

			par, err := NewAgent(tp, tpl, &userspec.Spec{}, info, WithParallelism(8))
			if err != nil {
				t.Fatal(err)
			}

			want, _, err := liveAgentSchedule(tp, tpl, &userspec.Spec{}, info, 25, 600)
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", cfg.name, seed, err)
			}
			got, err := par.Schedule(600)
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", cfg.name, seed, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed %d: parallel schedule diverged\nseq: %v\npar: %v", cfg.name, seed, want, got)
			}
		}
	}
}

// TestParallelExplainedMatchesSequential extends the contract to the
// explain surface: the ranked candidate slices must agree exactly.
func TestParallelExplainedMatchesSequential(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 5)
	tpl := hat.Jacobi2D(500, 10)
	par, err := NewAgent(tp, tpl, &userspec.Spec{}, info, WithParallelism(8))
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
		t.Fatalf("explained candidates diverged: %d vs %d entries", len(want), len(got))
	}
}

// TestPruningPreservesSelection is the pruning property: across seeds,
// enabling pruning must never change the selected schedule — only
// CandidatesPlanned may shrink (pruned sets are never planned).
func TestPruningPreservesSelection(t *testing.T) {
	for _, seed := range []int64{2, 11, 29, 47} {
		tp, info := buildPool(t, 3, 4, seed)
		tpl := hat.Jacobi2D(800, 20)
		plain, err := NewAgent(tp, tpl, &userspec.Spec{Metric: userspec.MinExecutionTime}, info)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := NewAgent(tp, tpl, &userspec.Spec{Metric: userspec.MinExecutionTime}, info,
			WithPruning(true))
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Schedule(800)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.Schedule(800)
		if err != nil {
			t.Fatal(err)
		}
		if got.CandidatesPlanned > want.CandidatesPlanned {
			t.Fatalf("seed %d: pruning planned more sets (%d) than exhaustive (%d)",
				seed, got.CandidatesPlanned, want.CandidatesPlanned)
		}
		// Everything except the planned count must be identical.
		got.CandidatesPlanned = want.CandidatesPlanned
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: pruning changed the selection\nplain:  %v\npruned: %v", seed, want, got)
		}
	}
}

// TestConcurrentScheduleCalls drives the worker pool from multiple
// goroutines at once (run with -race): an agent must support concurrent
// scheduling rounds, and each must reach the same decision.
func TestConcurrentScheduleCalls(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 3)
	a, err := NewAgent(tp, hat.Jacobi2D(500, 10), &userspec.Spec{}, info,
		WithParallelism(8), WithPruning(true))
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
			t.Fatalf("concurrent round %d diverged: %v vs %v", i, s, ref)
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
		WithSpillFactor(40), WithParallelism(2), WithPruning(true))
	if err != nil {
		t.Fatal(err)
	}
	if a.spillFactor != 40 {
		t.Fatalf("WithSpillFactor not applied: %v", a.spillFactor)
	}
	if a.coord.parallelism != 2 || !a.coord.pruning {
		t.Fatalf("options not applied: parallelism=%d pruning=%v",
			a.coord.parallelism, a.coord.pruning)
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
