package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/obs"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// sessionSelectors is the sweep every session parity test runs: one of
// each selector family, all deterministic for a fixed spec.
var sessionSelectors = []struct {
	name string
	spec SelectorSpec
}{
	{"exhaustive", SelectorSpec{Kind: SelectorExhaustive}},
	{"greedy", SelectorSpec{Kind: SelectorGreedy}},
	{"beam", SelectorSpec{Kind: SelectorBeam, BeamWidth: 8}},
	{"lpga", SelectorSpec{Kind: SelectorLPGA, Seed: 1}},
}

// TestSessionColdParity is the session's base contract: the first
// Round() must be bit-identical — DeepEqual on the whole Schedule,
// which pins float bits, placement shape, and host order — to what
// Agent.Schedule produces at the same instant, across pools, selector
// families, and user metrics.
func TestSessionColdParity(t *testing.T) {
	pools := []struct {
		name          string
		clusters, per int
		seed          int64
	}{
		{"sdscpcl-8host", 0, 0, 3},
		{"sdscpcl-8host-b", 0, 0, 11},
		{"cluster-12host", 3, 4, 11},
	}
	metrics := []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost}
	const n = 600
	for _, p := range pools {
		tp, info := buildPool(t, p.clusters, p.per, p.seed)
		for _, sel := range sessionSelectors {
			for _, m := range metrics {
				name := p.name + "/" + sel.name + "/" + m.String()
				agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{Metric: m}, info,
					WithSelector(sel.spec), WithParallelism(1))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := agent.Schedule(n)
				if err != nil {
					t.Fatalf("%s schedule: %v", name, err)
				}
				sess, err := agent.NewReschedSession(n)
				if err != nil {
					t.Fatalf("%s session: %v", name, err)
				}
				got, st, err := sess.Round()
				if err != nil {
					t.Fatalf("%s round: %v", name, err)
				}
				if !st.Cold || st.Round != 1 {
					t.Fatalf("%s: first round stats not cold: %+v", name, st)
				}
				if st.Considered != want.CandidatesConsidered {
					t.Fatalf("%s: universe %d sets, agent considered %d", name, st.Considered, want.CandidatesConsidered)
				}
				if st.Rescored != st.Considered {
					t.Fatalf("%s: cold round rescored %d of %d", name, st.Rescored, st.Considered)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: cold round diverged from Schedule\nagent:   %+v\nsession: %+v", name, want, got)
				}
			}
		}
	}
}

// TestSessionDeltaParity drives twin sessions through perturbation
// sweeps — no change, one host, three hosts, the whole pool — applied
// through a live availability overlay, and demands the delta-aware
// Round() stay bit-identical to FullRound() on its twin, while actually
// exploiting the delta (rescoring a strict subset of the universe on
// small perturbations). EstimatePlacement must agree with the agent's
// allocating estimator under the same refreshed inputs.
func TestSessionDeltaParity(t *testing.T) {
	tp, base := buildPool(t, 3, 4, 7)
	overlay := map[string]float64{}
	info := NewOverlayInformation(base, overlay)
	hosts := tp.Hosts()
	const n = 600

	deltas := []struct {
		name  string
		hosts int // pool hosts to perturb this round
	}{
		{"none", 0},
		{"one", 1},
		{"three", 3},
		{"one-b", 1},
		{"all", len(hosts)},
		{"none-b", 0},
	}

	for _, sel := range sessionSelectors {
		for k := range overlay {
			delete(overlay, k)
		}
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info, WithSelector(sel.spec))
		if err != nil {
			t.Fatalf("%s: %v", sel.name, err)
		}
		sess, err := agent.NewReschedSession(n)
		if err != nil {
			t.Fatalf("%s session: %v", sel.name, err)
		}
		twin, err := agent.NewReschedSession(n)
		if err != nil {
			t.Fatalf("%s twin: %v", sel.name, err)
		}

		for round, d := range deltas {
			for i := 0; i < d.hosts; i++ {
				// Deterministic, round-varying perturbation.
				overlay[hosts[i].Name] = 0.15 + 0.1*float64((round+i)%7)
			}
			got, st, gerr := sess.Round()
			want, wst, werr := twin.FullRound()
			name := sel.name + "/" + d.name
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: error divergence: %v vs %v", name, gerr, werr)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: delta round diverged from full recomputation\nfull:  %+v\ndelta: %+v", name, want, got)
			}
			if wst.Rescored != wst.Considered {
				t.Fatalf("%s: FullRound rescored %d of %d", name, wst.Rescored, wst.Considered)
			}
			if round == 0 {
				continue
			}
			// The delta path must actually be incremental.
			if d.hosts == 0 {
				if st.Rescored != 0 || !st.Carried || st.ChangedHosts != 0 {
					t.Fatalf("%s: quiescent round did work: %+v", name, st)
				}
			} else if d.hosts == 1 && st.Rescored >= st.Considered && st.Considered > 1 {
				t.Fatalf("%s: one-host delta rescored the whole universe: %+v", name, st)
			}

			// Placement pricing parity under the same refreshed inputs.
			if got != nil {
				se, serr := sess.EstimatePlacement(got.Placement)
				ae, aerr := agent.EstimatePlacement(n, got.Placement)
				if (serr == nil) != (aerr == nil) || se != ae {
					t.Fatalf("%s: EstimatePlacement diverged: session (%v, %v) vs agent (%v, %v)",
						name, se, serr, ae, aerr)
				}
			}
		}
	}
}

// TestSessionGridDeltaParity exercises the chunked-bitmask, lazy-link,
// and site-chain paths on a pool past the pair-array threshold: a
// 128-host dedicated grid under the greedy selector, perturbed through
// the overlay. Round() must match FullRound() bit for bit there too.
func TestSessionGridDeltaParity(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 8, PerCluster: 16, Seed: 7, Quiet: true})
	overlay := map[string]float64{}
	info := NewOverlayInformation(OracleInformation(tp), overlay)
	hosts := tp.Hosts()
	const n = 2000

	agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info,
		WithSelector(SelectorSpec{Kind: SelectorGreedy}))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := agent.NewReschedSession(n)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := agent.NewReschedSession(n)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < round*3; i++ {
			overlay[hosts[(i*17)%len(hosts)].Name] = 0.2 + 0.1*float64((round+i)%5)
		}
		got, st, gerr := sess.Round()
		want, _, werr := twin.FullRound()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("round %d: error divergence: %v vs %v", round, gerr, werr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d (changed %d): diverged from full recomputation\nfull:  %+v\ndelta: %+v",
				round, st.ChangedHosts, want, got)
		}
	}
}

// TestSessionSteadyStateAllocFree is the zero-allocation gate for the
// kHz loop: once warm, a Round() that observes no input change must not
// allocate at all — the condition that makes per-simulated-second
// rescheduling affordable. Run without tracer or metrics, as the
// steady-state loop would be.
func TestSessionSteadyStateAllocFree(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 11)
	const n = 600
	agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := agent.NewReschedSession(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := sess.Round(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := sess.Round(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state Round allocates %v objects/op, want 0", allocs)
	}
}

// TestGoldenTraceDeltaRounds pins the JSONL trace of a three-round
// session — cold, quiescent carry, one-host delta — against
// testdata/golden_delta_trace.jsonl (regenerate with `go test -run
// Golden -update`), then re-derives the delta bookkeeping from the
// trace alone.
func TestGoldenTraceDeltaRounds(t *testing.T) {
	tp, base := buildPool(t, 0, 0, 11)
	overlay := map[string]float64{}
	info := NewOverlayInformation(base, overlay)
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	spec := &userspec.Spec{Accessible: []string{"alpha1", "alpha2", "alpha3", "alpha4"}}
	agent, err := NewAgent(tp, hat.Jacobi2D(600, 10), spec, info, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := agent.NewReschedSession(600)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if round == 2 {
			overlay["alpha2"] = 0.4
		}
		if _, _, err := sess.Round(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_delta_trace.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace diverged from %s — if the schema change is intended, regenerate with -update\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}

	var events []obs.Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) != 3 {
		t.Fatalf("want 3 delta_round events, got %d", len(events))
	}
	for i, e := range events {
		if e.Type != obs.EvDeltaRound || e.Round != uint64(i+1) {
			t.Fatalf("event %d: want delta_round round %d, got %+v", i, i+1, e)
		}
		if e.Considered == 0 || len(e.Hosts) == 0 {
			t.Fatalf("event %d carries no decision: %+v", i, e)
		}
	}
	cold, quiet, delta := events[0], events[1], events[2]
	if cold.Rescored != cold.Considered || cold.Changed != 4 || cold.Carried {
		t.Fatalf("cold round bookkeeping wrong: %+v", cold)
	}
	if quiet.Rescored != 0 || quiet.Changed != 0 || !quiet.Carried {
		t.Fatalf("quiescent round bookkeeping wrong: %+v", quiet)
	}
	if delta.Changed != 1 || delta.Rescored == 0 || delta.Rescored >= delta.Considered {
		t.Fatalf("one-host delta bookkeeping wrong: %+v", delta)
	}
}

// TestAgentScheduleAllocs gates the allocation cost of a plain
// Coordinator round: a 12-host exhaustive Agent.Schedule (4095
// candidate sets, sequential) prices every set on the strip kernel and
// builds a placement for the winner only. What remains is two
// allocations per set (the selector's yielded set and the candidate's
// host names, 8,190 in all) plus about a hundred for the snapshot,
// selector setup, candidate slice growth, and the winner.
func TestAgentScheduleAllocs(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 11)
	const n = 600
	agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := agent.Schedule(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.CandidatesConsidered != 4095 {
		t.Fatalf("considered %d sets, want 4095", s.CandidatesConsidered)
	}
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := agent.Schedule(n); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Agent.Schedule: %.0f allocs/op over %d sets", allocs, s.CandidatesConsidered)
	if allocs > 8500 {
		t.Fatalf("Agent.Schedule allocates %.0f objects/op, want <= 8500", allocs)
	}
}
