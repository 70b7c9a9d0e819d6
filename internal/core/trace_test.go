package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"apples/internal/hat"
	"apples/internal/obs"
	"apples/internal/userspec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGoldenTraceJacobiRound pins the JSONL trace of one fixed-seed
// Jacobi scheduling round. Any change to the event schema or to the
// decision sequence shows up as a reviewable diff against
// testdata/golden_trace.jsonl (regenerate with `go test -run Golden
// -update`). It then re-derives the decision from the trace alone and
// checks it against the schedule the agent returned — the trace must
// reconstruct the full decision, not just narrate it.
func TestGoldenTraceJacobiRound(t *testing.T) {
	tp, info := buildPool(t, 0, 0, 11)
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	// Four accessible hosts keep the golden file a reviewable 21 lines
	// (1 snapshot + 15 candidate sets + 1 winner + 4 stage spans);
	// sequential evaluation fixes the emission order. The stage timer
	// reads an injected counting clock (1 ms per read) so span durations
	// are bit-stable across machines.
	spec := &userspec.Spec{Accessible: []string{"alpha1", "alpha2", "alpha3", "alpha4"}}
	tick := 0
	clock := func() float64 { tick++; return float64(tick) * 1e-3 }
	st := obs.NewStageTimer(obs.NewMetrics(), tr, clock)
	agent, err := NewAgent(tp, hat.Jacobi2D(600, 10), spec, info,
		WithParallelism(1), WithTracer(tr), WithStageTiming(st))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := agent.Schedule(600)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_trace.jsonl")
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

	// Reconstruct the decision from the trace.
	var events []obs.Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if events[0].Type != obs.EvSnapshot || events[0].Pool != 4 {
		t.Fatalf("round must open with the snapshot event, got %+v", events[0])
	}
	var winner *obs.Event
	var spanStages []string
	candidates := 0
	bestScore, bestIdx := 0.0, -1
	for i := range events {
		e := &events[i]
		switch e.Type {
		case obs.EvCandidate:
			candidates++
			if bestIdx < 0 || e.Score < bestScore {
				bestScore, bestIdx = e.Score, i
			}
		case obs.EvWinner:
			winner = e
		case obs.EvSpan:
			spanStages = append(spanStages, e.Stage)
			if e.Seconds <= 0 {
				t.Fatalf("span %q carries no duration: %+v", e.Stage, e)
			}
		}
	}
	// Spans close in the blueprint's stage order; the reduce span ends
	// after the winner event, pinning "decision, then its timing".
	wantStages := []string{obs.StageSnapshot, obs.StageSelect, obs.StagePlanEstimate, obs.StageReduce}
	if !reflect.DeepEqual(spanStages, wantStages) {
		t.Fatalf("span stage order = %v, want %v", spanStages, wantStages)
	}
	if last := events[len(events)-1]; last.Type != obs.EvSpan || last.Stage != obs.StageReduce {
		t.Fatalf("round must close with the reduce span, got %+v", last)
	}
	if winner == nil {
		t.Fatal("trace has no winner event")
	}
	if candidates != sched.CandidatesPlanned || winner.Considered != sched.CandidatesConsidered {
		t.Fatalf("trace counts (%d candidates, %d considered) disagree with schedule (%d planned, %d considered)",
			candidates, winner.Considered, sched.CandidatesPlanned, sched.CandidatesConsidered)
	}
	if bestIdx < 0 || winner.Score != bestScore {
		t.Fatalf("winner score %v is not the minimum candidate score %v", winner.Score, bestScore)
	}
	// Schedule.Hosts is in strip-chain order; trace events carry the
	// candidate set in enumeration order. Same resources, maybe permuted.
	if !sameHosts(winner.Hosts, sched.Hosts) || !sameHosts(events[bestIdx].Hosts, sched.Hosts) {
		t.Fatalf("trace winner %v / best candidate %v disagree with schedule hosts %v",
			winner.Hosts, events[bestIdx].Hosts, sched.Hosts)
	}
	if winner.Predicted != sched.PredictedTotal {
		t.Fatalf("trace predicted %v, schedule predicted %v", winner.Predicted, sched.PredictedTotal)
	}
}

// sameHosts reports whether two host lists name the same set of hosts,
// ignoring order.
func sameHosts(a, b []string) bool {
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	return reflect.DeepEqual(as, bs)
}

// TestSharedObsAcrossConcurrentRounds drives several agents through
// parallel scheduling rounds that all feed one Metrics registry and one
// Collector. Correctness is exact bookkeeping — every event and count
// accounted for — and the -race job checks the synchronization of the
// shared instruments under contention.
func TestSharedObsAcrossConcurrentRounds(t *testing.T) {
	reg := obs.NewMetrics()
	col := obs.NewCollector()
	const agents, rounds = 4, 3

	type built struct {
		agent *Agent
	}
	pool := make([]built, agents)
	for i := range pool {
		tp, info := buildPool(t, 3, 4, int64(100+i))
		a, err := NewAgent(tp, hat.Jacobi2D(600, 10), &userspec.Spec{}, info,
			WithPruning(true), WithTracer(col), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = built{agent: a}
	}

	considered := make([]int, agents)
	var wg sync.WaitGroup
	for i := range pool {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sched, err := pool[i].agent.Schedule(600)
				if err != nil {
					t.Errorf("agent %d round %d: %v", i, r, err)
					return
				}
				considered[i] += sched.CandidatesConsidered
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	totalConsidered := 0
	for _, c := range considered {
		totalConsidered += c
	}
	if got := reg.Counter(obs.MetricRounds).Value(); got != agents*rounds {
		t.Fatalf("rounds counter = %d, want %d", got, agents*rounds)
	}
	evaluated := reg.Counter(obs.MetricCandidatesEvaluated).Value()
	prunedN := reg.Counter(obs.MetricCandidatesPruned).Value()
	infeasible := reg.Counter(obs.MetricCandidatesInfeasible).Value()
	if got := evaluated + prunedN + infeasible; got != uint64(totalConsidered) {
		t.Fatalf("evaluated+pruned+infeasible = %d, want %d considered", got, totalConsidered)
	}
	if got := reg.Histogram(obs.MetricRoundSeconds, nil).Count(); got != agents*rounds {
		t.Fatalf("round latency observations = %d, want %d", got, agents*rounds)
	}
	// Each round emits one snapshot, one event per considered set, and
	// one winner.
	if got, want := col.Len(), totalConsidered+2*agents*rounds; got != want {
		t.Fatalf("collector holds %d events, want %d", got, want)
	}
}

// TestStageTimingAcrossConcurrentRounds drives several agents — each
// evaluating candidates with parallel workers — through simultaneous
// rounds that share one StageTimer, one Metrics registry, and one
// RingTracer. Every round must land exactly one observation in each
// stage histogram, and the ring must account for every span emitted;
// the -race job checks the shared handles under contention.
func TestStageTimingAcrossConcurrentRounds(t *testing.T) {
	reg := obs.NewMetrics()
	ring := obs.NewRingTracer(32)
	st := obs.NewStageTimer(reg, ring, nil)
	const agents, rounds = 4, 3

	pool := make([]*Agent, agents)
	for i := range pool {
		tp, info := buildPool(t, 3, 4, int64(200+i))
		a, err := NewAgent(tp, hat.Jacobi2D(600, 10), &userspec.Spec{}, info,
			WithParallelism(4), WithStageTiming(st))
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = a
	}

	var wg sync.WaitGroup
	for i := range pool {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := pool[i].Schedule(600); err != nil {
					t.Errorf("agent %d round %d: %v", i, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Exact bookkeeping: one observation per round in every round stage.
	stages := []string{obs.StageSnapshot, obs.StageSelect, obs.StagePlanEstimate, obs.StageReduce}
	for _, stage := range stages {
		if got := reg.Histogram(obs.StageMetricName(stage), nil).Count(); got != agents*rounds {
			t.Fatalf("stage %q recorded %d observations, want %d", stage, got, agents*rounds)
		}
	}
	if got, want := ring.Total(), uint64(len(stages)*agents*rounds); got != want {
		t.Fatalf("ring total = %d, want %d spans", got, want)
	}
	for _, e := range ring.Recent(0) {
		if e.Type != obs.EvSpan {
			t.Fatalf("ring holds non-span event %+v (timer without tracer must emit only spans)", e)
		}
	}
}
