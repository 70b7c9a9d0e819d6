package expt

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/jacobi"
	"apples/internal/mstore"
	"apples/internal/nws"
	"apples/internal/obs"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// ReplaySpec configures the store-replay experiment: one live run whose
// NWS sensing is recorded to a measurement store, then deterministic
// re-runs whose forecasts are warm-started from that store instead of
// live sensors.
type ReplaySpec struct {
	N          int
	Iterations int
	Seed       int64
	WarmupSec  float64
	// StoreDir receives the recorded history. Empty means a throwaway
	// temporary directory.
	StoreDir string
}

func (rs *ReplaySpec) setDefaults() {
	if rs.N == 0 {
		rs.N = 1200
	}
	if rs.Iterations == 0 {
		rs.Iterations = 50
	}
	if rs.WarmupSec == 0 {
		rs.WarmupSec = 300
	}
}

// ReplayRound is one pass through the full snapshot → select → plan →
// actuate pipeline, with its complete decision trace.
type ReplayRound struct {
	// Trace is the round's JSONL decision trace: snapshot, candidates,
	// winner, and the wait-or-run verdict. Determinism is asserted on
	// these exact bytes.
	Trace []byte
	// Hosts and Predicted summarize the winning schedule.
	Hosts     []string
	Predicted float64
	// Verdict is the Section 3.2 wait-or-run decision on a fixed
	// dedicated offer, exercising the verdict event path.
	Verdict string
	// Measured is the actuated (virtual) execution time of the winner.
	Measured float64
	// Records is how many store records warm-started the forecasters
	// (zero for the live, sensor-driven round).
	Records int
}

// ReplayResult compares the recorded live round with two store-driven
// replays of it.
type ReplayResult struct {
	Spec          ReplaySpec
	Live          ReplayRound
	First, Second ReplayRound
	StoreSegments int
	StoreRecords  int
	// Deterministic: the two replays produced byte-identical decision
	// traces. MatchesLive: the replays also reproduced the live round's
	// trace exactly — the store carries everything the decision depended
	// on.
	Deterministic bool
	MatchesLive   bool
}

// runReplayRound drives one scheduling round on a warmed testbed whose
// forecasts come from svc, traces every decision, and actuates the
// winner. The 8-host testbed is evaluated inline, which pins the
// trace's emission order, and no stage timing is attached, so the trace
// bytes are a pure function of the forecast state and the testbed — the
// determinism contract the replay figure asserts.
func runReplayRound(spec ReplaySpec, eng *sim.Engine, tp *grid.Topology, svc *nws.Service) (ReplayRound, error) {
	var round ReplayRound
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	agent, err := core.NewAgent(tp, hat.Jacobi2D(spec.N, spec.Iterations),
		&userspec.Spec{Decomposition: "strip"}, core.NWSInformation(svc, tp),
		core.WithTracer(tr))
	if err != nil {
		return round, err
	}
	sched, err := agent.Schedule(spec.N)
	if err != nil {
		return round, err
	}
	dec, err := agent.WaitOrRun(spec.N, core.DedicatedOffer{Hosts: []string{"alpha1", "alpha2"}, WaitSec: 600})
	if err != nil {
		return round, err
	}
	tpl := hat.Jacobi2D(spec.N, spec.Iterations)
	res, err := jacobi.Run(tp, sched.Placement, jacobi.Config{
		Iterations:          spec.Iterations,
		FlopPerPoint:        tpl.Tasks[0].FlopPerUnit,
		BytesPerPoint:       tpl.Tasks[0].BytesPerUnit,
		BorderBytesPerPoint: tpl.Comms[0].BytesPerUnit,
	})
	if err != nil {
		return round, err
	}
	if err := tr.Err(); err != nil {
		return round, err
	}
	round.Trace = append([]byte(nil), buf.Bytes()...)
	round.Hosts = sched.Hosts
	round.Predicted = sched.PredictedTotal
	round.Verdict = "run"
	if dec.Wait {
		round.Verdict = "wait"
	}
	round.Measured = res.Time
	return round, nil
}

// RecordReplayRun executes the live half: a fresh testbed senses
// WarmupSec of history into the store at dir, then schedules, decides,
// and actuates with that live service as the information source.
func RecordReplayRun(spec ReplaySpec, dir string) (ReplayRound, error) {
	spec.setDefaults()
	st, err := mstore.Open(dir)
	if err != nil {
		return ReplayRound{}, err
	}
	defer st.Close()
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: spec.Seed})
	svc := nws.NewService(eng, 10, nws.WithStore(st))
	svc.WatchTopology(tp)
	if err := eng.RunUntil(spec.WarmupSec); err != nil {
		return ReplayRound{}, err
	}
	svc.Stop()
	if err := svc.StoreErr(); err != nil {
		return ReplayRound{}, err
	}
	round, err := runReplayRound(spec, eng, tp, svc)
	if err != nil {
		return ReplayRound{}, err
	}
	return round, st.Close()
}

// ReplayRunFromStore executes the replay half: a fresh same-seed
// testbed is warmed with no sensors attached, the forecaster banks are
// restored from the recorded store alone, and the identical pipeline
// runs again. No live measurement is taken — every forecast the round
// sees came off disk.
func ReplayRunFromStore(spec ReplaySpec, dir string) (ReplayRound, error) {
	spec.setDefaults()
	st, err := mstore.Open(dir, mstore.ReadOnly())
	if err != nil {
		return ReplayRound{}, err
	}
	defer st.Close()
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: spec.Seed})
	if err := eng.RunUntil(spec.WarmupSec); err != nil {
		return ReplayRound{}, err
	}
	svc := nws.NewService(eng, 10)
	replayed, err := svc.RestoreFromStore(st)
	if err != nil {
		return ReplayRound{}, err
	}
	round, err := runReplayRound(spec, eng, tp, svc)
	if err != nil {
		return ReplayRound{}, err
	}
	round.Records = replayed
	return round, nil
}

// Replay runs the whole experiment: record one live round, replay it
// twice from the store, and compare the three decision traces.
func Replay(spec ReplaySpec) (*ReplayResult, error) {
	spec.setDefaults()
	dir := spec.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "apples-replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	res := &ReplayResult{Spec: spec}
	var err error
	if res.Live, err = RecordReplayRun(spec, dir); err != nil {
		return nil, fmt.Errorf("expt: replay record: %w", err)
	}
	if res.First, err = ReplayRunFromStore(spec, dir); err != nil {
		return nil, fmt.Errorf("expt: first replay: %w", err)
	}
	if res.Second, err = ReplayRunFromStore(spec, dir); err != nil {
		return nil, fmt.Errorf("expt: second replay: %w", err)
	}
	st, err := mstore.Open(dir, mstore.ReadOnly())
	if err != nil {
		return nil, err
	}
	res.StoreSegments = st.Segments()
	res.StoreRecords = res.First.Records
	st.Close()
	res.Deterministic = bytes.Equal(res.First.Trace, res.Second.Trace)
	res.MatchesLive = bytes.Equal(res.Live.Trace, res.First.Trace)
	return res, nil
}

// FormatReplay renders the replay experiment.
func FormatReplay(r *ReplayResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Replay — store-driven re-derivation of one recorded round (n=%d, seed=%d, warmup %.0fs)\n",
		r.Spec.N, r.Spec.Seed, r.Spec.WarmupSec)
	fmt.Fprintf(&sb, "  store: %d records in %d segment(s)\n", r.StoreRecords, r.StoreSegments)
	row := func(name string, rd ReplayRound) {
		fmt.Fprintf(&sb, "  %-8s winner=%v  predicted %8.2f s  measured %8.2f s  verdict=%s  trace %d bytes\n",
			name, rd.Hosts, rd.Predicted, rd.Measured, rd.Verdict, len(rd.Trace))
	}
	row("live", r.Live)
	row("replay-1", r.First)
	row("replay-2", r.Second)
	verdict := func(ok bool) string {
		if ok {
			return "identical"
		}
		return "DIVERGED"
	}
	fmt.Fprintf(&sb, "  replay-1 vs replay-2 decision traces: %s\n", verdict(r.Deterministic))
	fmt.Fprintf(&sb, "  replays vs live decision trace:       %s\n", verdict(r.MatchesLive))
	return sb.String()
}
