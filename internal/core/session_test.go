package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/obs"
	"apples/internal/partition"
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
}

// samePick reports whether two schedules are DeepEqual apart from
// CandidatesPlanned, which a bounded round counts without the sets it
// skipped. Neither schedule is modified: sessions own theirs.
func samePick(a, b *Schedule) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.CandidatesPlanned, y.CandidatesPlanned = 0, 0
	return reflect.DeepEqual(x, y)
}

// TestSessionColdParity is the session's base contract: the first
// Round() must be bit-identical — DeepEqual on the whole Schedule,
// which pins float bits, placement shape, and host order — to the
// schedule Agent.ScheduleExplained produces at the same instant, across
// pools, selector families, and user metrics. ScheduleExplained plans
// every set; a bounded cold round (every metric, at the default spill
// factor) skips the sets its metric bound rules out, so only its
// planned count may be smaller. An unbounded round plans every set, so
// its planned count agrees too.
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
					WithSelector(sel.spec))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, _, err := agent.ScheduleExplained(n, 1)
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
				if st.Rescored+st.Pruned != st.Considered {
					t.Fatalf("%s: cold round rescored %d and pruned %d of %d", name, st.Rescored, st.Pruned, st.Considered)
				}
				if !samePick(want, got) {
					t.Fatalf("%s: cold round diverged from Schedule\nagent:   %+v\nsession: %+v", name, want, got)
				}
				if bounded := agent.spillFactor >= 1; !bounded && (st.Pruned != 0 || got.CandidatesPlanned != want.CandidatesPlanned) {
					t.Fatalf("%s: unbounded cold round pruned %d, planned %d of the agent's %d",
						name, st.Pruned, got.CandidatesPlanned, want.CandidatesPlanned)
				} else if got.CandidatesPlanned > want.CandidatesPlanned {
					t.Fatalf("%s: bounded cold round planned %d, more than the agent's %d",
						name, got.CandidatesPlanned, want.CandidatesPlanned)
				}
			}
		}
	}
}

// TestSessionDeltaParity drives twin sessions through perturbation
// sweeps — no change, one host, three hosts, the whole pool — applied
// through a live availability overlay, under every selector family and
// user metric, and demands Round() pick exactly the schedule FullRound()
// picks on its twin. A bounded round skips the sets its metric bound
// rules out, so on small perturbations it does less work; an unbounded
// round (spill factor below 1) plans every set, so it must equal
// FullRound outright, planned count included. EstimatePlacement must
// agree with the agent's allocating estimator under the same refreshed
// inputs.
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
	type row struct {
		name   string
		sel    SelectorSpec
		metric userspec.Metric
		spill  float64 // 0 keeps the agent's default
	}
	var rows []row
	for _, sel := range sessionSelectors {
		for _, m := range []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost} {
			rows = append(rows, row{sel.name + "/" + m.String(), sel.spec, m, 0})
		}
	}
	// Below a spill factor of 1 the bounds are unsound, so Round plans
	// every set.
	rows = append(rows, row{"exhaustive/min-time/spill0.5", SelectorSpec{Kind: SelectorExhaustive}, userspec.MinExecutionTime, 0.5})

	for _, r := range rows {
		for k := range overlay {
			delete(overlay, k)
		}
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{Metric: r.metric}, info,
			WithSelector(r.sel), WithSpillFactor(r.spill))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		bounded := agent.spillFactor >= 1
		sess, err := agent.NewReschedSession(n)
		if err != nil {
			t.Fatalf("%s session: %v", r.name, err)
		}
		twin, err := agent.NewReschedSession(n)
		if err != nil {
			t.Fatalf("%s twin: %v", r.name, err)
		}

		for round, d := range deltas {
			for i := 0; i < d.hosts; i++ {
				// Deterministic, round-varying perturbation.
				overlay[hosts[i].Name] = 0.15 + 0.1*float64((round+i)%7)
			}
			got, st, gerr := sess.Round()
			want, wst, werr := twin.FullRound()
			name := r.name + "/" + d.name
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: error divergence: %v vs %v", name, gerr, werr)
			}
			if !samePick(want, got) || (!bounded && !reflect.DeepEqual(want, got)) {
				t.Fatalf("%s: round diverged from full recomputation\nfull:  %+v\nround: %+v", name, want, got)
			}
			if wst.Rescored != wst.Considered || wst.Pruned != 0 {
				t.Fatalf("%s: FullRound rescored %d and pruned %d of %d", name, wst.Rescored, wst.Pruned, wst.Considered)
			}
			if st.Rescored+st.Pruned != st.Considered && !st.Carried {
				t.Fatalf("%s: round rescored %d and pruned %d of %d", name, st.Rescored, st.Pruned, st.Considered)
			}
			if !bounded && st.Pruned != 0 {
				t.Fatalf("%s: unbounded round pruned %d sets", name, st.Pruned)
			}
			if round == 0 {
				continue
			}
			// A bounded round must do less work than FullRound. Under
			// greedy/min-cost it cannot: this pool's rates are uniform,
			// so every greedy prefix holds the fastest host, whose cost
			// per point minimises every set's cost bound; nothing is
			// prunable there.
			if d.hosts == 0 {
				if st.Rescored != 0 || st.Pruned != 0 || !st.Carried || st.ChangedHosts != 0 {
					t.Fatalf("%s: quiescent round did work: %+v", name, st)
				}
			} else if d.hosts == 1 && bounded && r.name != "greedy/min-cost" &&
				st.Rescored >= st.Considered && st.Considered > 1 {
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

// TestSessionGridDeltaParity exercises the chunked-bitmask and
// lazy-link paths on a pool past the pair-array threshold: a 128-host
// grid, perturbed through the overlay. Under the greedy selector chains
// take the site layout; under the exhaustive selector (the
// desirability-prefix fallback) they take the nearest-neighbor layout
// over the session's transfer-cost store, composed from the link
// column. On the loaded grid the clock advances between rounds, so
// link bandwidths change and the store is recomposed. The cold round
// must equal ScheduleExplained's schedule, and Round() must match
// FullRound() bit for bit.
func TestSessionGridDeltaParity(t *testing.T) {
	const n = 2000
	for _, c := range []struct {
		kind  SelectorKind
		quiet bool
	}{{SelectorGreedy, true}, {SelectorExhaustive, true}, {SelectorExhaustive, false}} {
		eng := sim.NewEngine()
		tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 8, PerCluster: 16, Seed: 7, Quiet: c.quiet})
		hosts := tp.Hosts()
		overlay := map[string]float64{}
		info := NewOverlayInformation(OracleInformation(tp), overlay)
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info,
			WithSelector(SelectorSpec{Kind: c.kind}))
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := agent.ScheduleExplained(n, 1)
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
		name := fmt.Sprintf("%s/quiet=%v", c.kind, c.quiet)
		for round := 0; round < 4; round++ {
			if !c.quiet && round > 0 {
				if err := eng.RunUntil(eng.Now() + 30); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < round*3; i++ {
				overlay[hosts[(i*17)%len(hosts)].Name] = 0.2 + 0.1*float64((round+i)%5)
			}
			got, st, gerr := sess.Round()
			want, _, werr := twin.FullRound()
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s round %d: error divergence: %v vs %v", name, round, gerr, werr)
			}
			if round == 0 && !samePick(cold, got) {
				t.Fatalf("%s: cold round diverged from Schedule\nagent:   %+v\nsession: %+v", name, cold, got)
			}
			if !c.quiet && round > 0 && st.ChangedLinks == 0 {
				t.Fatalf("%s round %d: no link changed on the loaded grid", name, round)
			}
			if !samePick(want, got) {
				t.Fatalf("%s round %d (changed %d): diverged from full recomputation\nfull:  %+v\nround: %+v",
					name, round, st.ChangedHosts, want, got)
			}
			if c.kind == SelectorExhaustive {
				// The store must hold the costs the selector's model
				// prices from a fresh view at this instant.
				pool := sess.sel.pool
				fresh := buildSelModel(poolSelector(tp, roundSnapshot(info, pool), pool), true)
				if !reflect.DeepEqual(sess.sel.cost, fresh.cost) {
					t.Fatalf("%s round %d: session transfer costs differ from a fresh pool model", name, round)
				}
			}
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

// TestSessionDeltaRoundAllocs gates the allocation cost of a bounded
// round on a live one-host delta — BenchmarkResched's 12host/delta1
// loop: a 12-host min-time session whose first pool host's availability
// alternates between two values. The round itself allocates nothing;
// what remains is re-materializing the winner when the delta reaches it.
func TestSessionDeltaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tp, base := buildPool(t, 3, 4, 11)
	overlay := map[string]float64{}
	const n = 2000
	agent, err := NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"},
		NewOverlayInformation(base, overlay))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := agent.NewReschedSession(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Round(); err != nil {
		t.Fatal(err)
	}
	host, i := sess.Pool()[0], 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		overlay[host] = 0.3 + 0.1*float64(i%2)
		if _, st, err := sess.Round(); err != nil || st.Pruned == 0 {
			t.Fatalf("bounded delta round: %+v, %v", st, err)
		}
	})
	t.Logf("bounded one-host delta Round: %.0f allocs/op", allocs)
	if allocs > 8 {
		t.Fatalf("bounded one-host delta Round allocates %.0f objects/op, want <= 8", allocs)
	}
}

// TestGoldenTraceDeltaRounds pins the JSONL trace of a three-round
// min-time session — cold, quiescent carry, one-host delta — against
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
	// The min-time session is bounded: every round that does work
	// re-plans some sets and skips the rest by the compute bound.
	cold, quiet, delta := events[0], events[1], events[2]
	if cold.Rescored+cold.Pruned != cold.Considered || cold.Changed != 4 || cold.Carried {
		t.Fatalf("cold round bookkeeping wrong: %+v", cold)
	}
	if quiet.Rescored != 0 || quiet.Pruned != 0 || quiet.Changed != 0 || !quiet.Carried {
		t.Fatalf("quiescent round bookkeeping wrong: %+v", quiet)
	}
	if delta.Changed != 1 || delta.Rescored == 0 || delta.Rescored+delta.Pruned != delta.Considered {
		t.Fatalf("one-host delta bookkeeping wrong: %+v", delta)
	}
}

// TestAgentScheduleAllocs gates the allocation cost of a plain
// Coordinator round: a 12-host exhaustive Agent.Schedule (4095
// candidate sets, sequential) chains every set into one backing array,
// skips the sets its compute bound rules out, prices the rest on the
// strip kernel and builds a placement for the winner only. A candidate
// keeps its chain instead of copying host names, so nothing is
// allocated per planned set (569 here): the 92 allocations are the
// snapshot, the enumeration's tables, candidate slice growth, and the
// winner.
func TestAgentScheduleAllocs(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 11)
	const n = 600
	agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info)
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
	t.Logf("Agent.Schedule: %.0f allocs/op over %d sets, %d planned", allocs, s.CandidatesConsidered, s.CandidatesPlanned)
	if allocs > 150 {
		t.Fatalf("Agent.Schedule allocates %.0f objects/op, want <= 150", allocs)
	}
}

// TestScheduleExplainedAllocs gates the unpruned round behind
// ScheduleExplained(n, 1) on the same 12-host pool: it plans every
// feasible set, ranks them and names and places only the top one, so
// its allocations do not grow with the 4,095 sets it plans.
func TestScheduleExplainedAllocs(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 11)
	const n = 600
	agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info)
	if err != nil {
		t.Fatal(err)
	}
	s, top, err := agent.ScheduleExplained(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Placement == nil || len(top[0].Hosts) != len(s.Hosts) {
		t.Fatalf("top candidates %+v for schedule %v", top, s)
	}
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := agent.ScheduleExplained(n, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ScheduleExplained(n, 1): %.0f allocs/op over %d sets, %d planned", allocs, s.CandidatesConsidered, s.CandidatesPlanned)
	if allocs > 150 {
		t.Fatalf("ScheduleExplained(n, 1) allocates %.0f objects/op, want <= 150", allocs)
	}
}

// TestReschedulerEmptyPoolKeeps pins the Rescheduler on an agent whose
// Spec filters out every host: it cannot build its session, so every
// checkpoint keeps the current placement and traces why.
func TestReschedulerEmptyPoolKeeps(t *testing.T) {
	tp, info := buildPool(t, 0, 0, 3)
	col := obs.NewCollector()
	a, err := NewAgent(tp, hat.Jacobi2D(600, 40), &userspec.Spec{Excluded: tp.HostNames()}, info, WithTracer(col))
	if err != nil {
		t.Fatal(err)
	}
	replan := a.Rescheduler(600, 0.1)
	current := &partition.Placement{N: 600, Kind: "strip"}
	for _, done := range []int{10, 20, 30} {
		if p := replan(done, current); p != nil {
			t.Fatalf("checkpoint %d: replanned to %v", done, p)
		}
	}
	events := col.Events()
	if len(events) != 3 {
		t.Fatalf("%d events, want one per checkpoint: %+v", len(events), events)
	}
	for i, e := range events {
		if e.Type != obs.EvReschedule || e.Verdict != "keep" || e.Reason != "no-fresh-schedule" {
			t.Fatalf("checkpoint %d: event %+v, want keep/no-fresh-schedule", i, e)
		}
	}
}
