package core

import (
	"testing"
	"time"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// newGridAgent builds a dedicated cluster-of-clusters scenario with
// oracle information — the shape the heuristic selectors exist for.
func newGridAgent(t testing.TB, clusters, per int, spec SelectorSpec) *Agent {
	t.Helper()
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: 7, Quiet: true,
	})
	agent, err := NewAgent(tp, hat.Jacobi2D(4000, 40), &userspec.Spec{Decomposition: "strip"},
		OracleInformation(tp), WithSelector(spec))
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

// TestGreedySelector2048Hosts is the "past the 2^n wall" smoke test:
// one greedy scheduling round over a 2048-host grid must stay
// interactive (< 50ms wall-clock; relaxed under the race detector). The
// round exercises the whole large-pool path — class-collapsed routes,
// routes composed on demand over frozen links, the sampled selector model, and the streaming
// coordinator.
func TestGreedySelector2048Hosts(t *testing.T) {
	agent := newGridAgent(t, 128, 16, SelectorSpec{Kind: SelectorGreedy})
	budget := 50 * time.Millisecond
	if raceEnabled {
		budget = 500 * time.Millisecond
	}
	best := time.Duration(0)
	var considered int
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		sched, err := agent.Schedule(4000)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); trial == 0 || d < best {
			best = d
		}
		considered = sched.CandidatesConsidered
		if got := len(sched.Placement.Assignments); got == 0 {
			t.Fatal("empty placement")
		}
	}
	if best > budget {
		t.Errorf("greedy round over 2048 hosts took %v (best of 3), budget %v", best, budget)
	}
	if considered < 32 {
		t.Errorf("greedy considered only %d candidate sets over 2048 hosts", considered)
	}
	t.Logf("2048-host greedy round: %v (best of 3), %d candidates", best, considered)
}

// TestGreedyRound2048Allocs gates the allocation cost of one greedy
// Agent.Schedule over a 2048-host grid. Host identity is a dense index
// from the topology's route table down to the kernel's feed, and
// availability a column by that index. Each candidate set's chain is a
// fresh slice, kept by its candidate in place of host names; only the
// selector model's layout scratch is reused. A round considers 96 sets
// and plans about 47 of them (the rest are pruned) in 185 allocations,
// so one more allocation per planned set (about 232) fails the gate.
func TestGreedyRound2048Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	agent := newGridAgent(t, 128, 16, SelectorSpec{Kind: SelectorGreedy})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := agent.Schedule(4000); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("2048-host greedy Agent.Schedule: %.0f allocs/op", allocs)
	if allocs > 220 {
		t.Fatalf("2048-host greedy Agent.Schedule allocates %.0f objects/op, want <= 220", allocs)
	}
}

// TestExhaustiveFallbackAllocs gates the allocation cost of one
// exhaustive Agent.Schedule over a 128-host grid, past
// maxExhaustiveHosts, where the selector yields the 128 desirability
// prefixes. The pool model prices every pair into one matrix, and each
// prefix is laid out by the model's chain layout into a fresh chain,
// which its candidate keeps. A round takes 177 allocations: the 128
// chains, and about 49 for the snapshot, the model's columns and
// matrix, candidate-slice growth and the winner. One more allocation
// per chain (about 305) fails the gate; the name-keyed layout it
// replaced took about 1,700.
func TestExhaustiveFallbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	agent := newGridAgent(t, 8, 16, SelectorSpec{Kind: SelectorExhaustive})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := agent.Schedule(4000); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("128-host exhaustive Agent.Schedule: %.0f allocs/op", allocs)
	if allocs > 200 {
		t.Fatalf("128-host exhaustive Agent.Schedule allocates %.0f objects/op, want <= 200", allocs)
	}
}

// TestHeuristicSelectors512Hosts checks beam completes a round on a
// 512-host grid with a non-empty placement — a breadth check that the
// wider heuristic survives pools far past the exhaustive range (greedy
// has its own 2048-host test).
func TestHeuristicSelectors512Hosts(t *testing.T) {
	agent := newGridAgent(t, 32, 16, SelectorSpec{Kind: SelectorBeam})
	sched, err := agent.Schedule(4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Placement.Assignments) == 0 {
		t.Fatal("empty placement")
	}
}
