package expt

import (
	"reflect"
	"testing"

	"apples/internal/core"
)

// scheduleWith builds the warmed scale scenario and schedules it once
// under the given selector, returning the predicted execution time.
func scheduleWith(t *testing.T, clusters, per int, seed int64, spec core.SelectorSpec) float64 {
	t.Helper()
	agent, err := NewScaleAgent(clusters, per, 600, seed,
		core.WithSelector(spec))
	if err != nil {
		t.Fatalf("agent %dx%d seed %d: %v", clusters, per, seed, err)
	}
	sched, err := agent.Schedule(600)
	if err != nil {
		t.Fatalf("schedule %dx%d seed %d selector %q: %v", clusters, per, seed, spec.Kind, err)
	}
	return sched.PredictedTotal
}

// TestSelectorOptimalityGap pins the heuristic selector families to
// their documented optimality gaps against exhaustive subset
// enumeration on every pool size the exhaustive selector can still
// enumerate (2..12 hosts), across five load seeds. Exhaustive evaluates
// every subset under the same frozen snapshot, so it is the true
// optimum and no heuristic can come in below it.
func TestSelectorOptimalityGap(t *testing.T) {
	if testing.Short() {
		t.Skip("full gap sweep is slow")
	}
	heuristics := []struct {
		name   string
		spec   core.SelectorSpec
		maxGap float64 // percent above the exhaustive optimum
	}{
		{"greedy", core.SelectorSpec{Kind: core.SelectorGreedy}, 15},
		{"beam", core.SelectorSpec{Kind: core.SelectorBeam}, 5},
	}
	seeds := []int64{1, 2, 3, 4, 5}
	for size := 2; size <= 12; size++ {
		clusters, per := 1, size
		if size%2 == 0 {
			clusters, per = 2, size/2
		}
		for _, seed := range seeds {
			exact := scheduleWith(t, clusters, per, seed, core.SelectorSpec{Kind: core.SelectorExhaustive})
			for _, h := range heuristics {
				pred := scheduleWith(t, clusters, per, seed, h.spec)
				gap := 100 * (pred - exact) / exact
				if gap < -1e-9 {
					t.Errorf("%d hosts seed %d: %s predicted %.4fs beats the exhaustive optimum %.4fs",
						size, seed, h.name, pred, exact)
				}
				if gap > h.maxGap {
					t.Errorf("%d hosts seed %d: %s gap %.2f%% exceeds the %.0f%% bound (%.4fs vs %.4fs)",
						size, seed, h.name, gap, h.maxGap, pred, exact)
				}
			}
		}
	}
}

// TestSelectorDeterminism verifies every selector family reproduces the
// exact same schedule when the scenario and spec are identical — the property the paper's reproducibility story
// rests on.
func TestSelectorDeterminism(t *testing.T) {
	specs := []core.SelectorSpec{
		{Kind: core.SelectorExhaustive},
		{Kind: core.SelectorGreedy},
		{Kind: core.SelectorBeam},
	}
	for _, spec := range specs {
		var schedules []interface{}
		for run := 0; run < 2; run++ {
			agent, err := NewScaleAgent(3, 4, 600, 42, core.WithSelector(spec))
			if err != nil {
				t.Fatalf("%s run %d: %v", spec.Kind, run, err)
			}
			sched, err := agent.Schedule(600)
			if err != nil {
				t.Fatalf("%s run %d: %v", spec.Kind, run, err)
			}
			schedules = append(schedules, sched)
		}
		if !reflect.DeepEqual(schedules[0], schedules[1]) {
			t.Errorf("selector %q is not deterministic:\n run 1: %+v\n run 2: %+v",
				spec.Kind, schedules[0], schedules[1])
		}
	}
}
