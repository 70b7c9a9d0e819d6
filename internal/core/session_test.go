package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// pools and user metrics, under the default (exhaustive) selector.
// ScheduleExplained plans every set; a bounded cold round (every
// metric, at the default spill factor) takes Agent.Schedule's seeded
// walk, so its planned count is exactly Agent.Schedule's. An unbounded
// round plans every set, so its planned count is ScheduleExplained's.
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
		for _, m := range metrics {
			name := p.name + "/" + m.String()
			agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{Metric: m}, info)
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
			} else if bounded {
				fresh, err := agent.Schedule(n)
				if err != nil {
					t.Fatalf("%s schedule: %v", name, err)
				}
				if got.CandidatesPlanned != fresh.CandidatesPlanned {
					t.Fatalf("%s: bounded cold round planned %d, Agent.Schedule %d",
						name, got.CandidatesPlanned, fresh.CandidatesPlanned)
				}
			}
		}
	}
}

// TestSessionDeltaParity drives twin sessions through perturbation
// sweeps — no change, one host, three hosts, the whole pool — applied
// through a live availability overlay, under every user metric, and
// demands Round() pick exactly the schedule FullRound() picks on its
// twin. A bounded round skips the sets its metric bound rules out, so
// on small perturbations it does less work; an unbounded round (spill
// factor below 1) plans every set, so it must equal FullRound outright,
// planned count included.
//
// Two pools feed the sweep: a 3×4 pool behind stopped NWS forecasts,
// and a loaded 2×6 grid behind the oracle, whose clock advances 30 s
// before every perturbed round, so link bandwidths change and the
// session's transfer-cost store is recomposed from its link column.
// After every round that store must hold the costs a fresh pool model
// prices from the same instant.
func TestSessionDeltaParity(t *testing.T) {
	type input struct {
		name string
		tp   *grid.Topology
		info Information
		eng  *sim.Engine // advanced before every perturbed round; nil for a static view
	}
	tp, nwsInfo := buildPool(t, 3, 4, 7)
	eng := sim.NewEngine()
	loaded := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 2, PerCluster: 6, Seed: 7})
	inputs := []input{{"nws-3x4", tp, nwsInfo, nil}, {"loaded-2x6", loaded, OracleInformation(loaded), eng}}
	const n = 600

	deltas := []struct {
		name  string
		hosts int // pool hosts to perturb this round
	}{
		{"none", 0},
		{"one", 1},
		{"three", 3},
		{"one-b", 1},
		{"all", 12},
		{"none-b", 0},
	}
	type row struct {
		name   string
		metric userspec.Metric
		spill  float64 // 0 keeps the agent's default
	}
	var rows []row
	for _, m := range []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost} {
		rows = append(rows, row{m.String(), m, 0})
	}
	// Below a spill factor of 1 the bounds are unsound, so Round plans
	// every set.
	rows = append(rows, row{"min-time/spill0.5", userspec.MinExecutionTime, 0.5})

	for _, in := range inputs {
		hosts := in.tp.Hosts()
		overlay := map[string]float64{}
		info := NewOverlayInformation(in.info, overlay)
		for _, r := range rows {
			for k := range overlay {
				delete(overlay, k)
			}
			agent, err := NewAgent(in.tp, hat.Jacobi2D(n, 10), &userspec.Spec{Metric: r.metric}, info,
				WithSpillFactor(r.spill))
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, r.name, err)
			}
			bounded := agent.spillFactor >= 1
			sess, err := agent.NewReschedSession(n)
			if err != nil {
				t.Fatalf("%s/%s session: %v", in.name, r.name, err)
			}
			twin, err := agent.NewReschedSession(n)
			if err != nil {
				t.Fatalf("%s/%s twin: %v", in.name, r.name, err)
			}

			for round, d := range deltas {
				name := in.name + "/" + r.name + "/" + d.name
				if in.eng != nil && round > 0 && d.hosts > 0 {
					if err := in.eng.RunUntil(in.eng.Now() + 30); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < d.hosts; i++ {
					// Deterministic, round-varying perturbation.
					overlay[hosts[i].Name] = 0.15 + 0.1*float64((round+i)%7)
				}
				got, st, gerr := sess.Round()
				want, wst, werr := twin.FullRound()
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
				// The store must hold the costs the selector's model
				// prices from a fresh view at this instant.
				pool := sess.a.hp.hosts
				fresh := buildSelModel(poolColsOf(in.tp, roundSnapshot(info, pool), pool), true)
				if !reflect.DeepEqual(sess.sel.cost, fresh.cost) {
					t.Fatalf("%s: session transfer costs differ from a fresh pool model", name)
				}
				if round == 0 {
					continue
				}
				if in.eng != nil && d.hosts > 0 && st.ChangedLinks == 0 {
					t.Fatalf("%s: no link changed on the loaded grid", name)
				}
				// A bounded round must do less work than FullRound.
				if d.hosts == 0 {
					if st.Rescored != 0 || st.Pruned != 0 || !st.Carried || st.ChangedHosts != 0 {
						t.Fatalf("%s: quiescent round did work: %+v", name, st)
					}
				} else if d.hosts == 1 && bounded && st.Rescored >= st.Considered && st.Considered > 1 {
					t.Fatalf("%s: one-host delta rescored the whole universe: %+v", name, st)
				}
			}
		}
	}
}

// TestSessionNeverStalerThanFresh pins why a session exists only over a
// universe that cannot change with information. On uncapped exhaustive
// 3×4 and 2×6 pools, every host's availability drifts to a fresh
// U(0.05, 1) on each of 30 steps, and the session's winner must predict
// exactly the total a fresh ScheduleExplained(n, 1) predicts on the same
// view. Totals are compared, not host order: exact ties are broken in
// the frozen enumeration order. Greedy, beam, a MaxResourceSets cap of
// 16 and a 13-host exhaustive pool pick from sets chosen against the
// information of the moment, so each must be refused with
// ErrSessionUniverse; a cap of 4,095 on 12 hosts keeps every subset and
// still gets a session.
func TestSessionNeverStalerThanFresh(t *testing.T) {
	const n = 400
	for _, p := range [][2]int{{3, 4}, {2, 6}} {
		for _, seed := range []int64{1, 2, 3, 11} {
			name := fmt.Sprintf("%dx%d/seed%d", p[0], p[1], seed)
			tp, base := buildPool(t, p[0], p[1], seed)
			overlay := map[string]float64{}
			agent, err := NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{}, NewOverlayInformation(base, overlay))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sess, err := agent.NewReschedSession(n)
			if err != nil {
				t.Fatalf("%s session: %v", name, err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 30; step++ {
				for _, h := range sess.Pool() {
					overlay[h] = 0.05 + 0.95*rng.Float64()
				}
				got, _, err := sess.Round()
				if err != nil {
					t.Fatalf("%s step %d round: %v", name, step, err)
				}
				want, _, err := agent.ScheduleExplained(n, 1)
				if err != nil {
					t.Fatalf("%s step %d fresh: %v", name, step, err)
				}
				if got.PredictedTotal != want.PredictedTotal {
					t.Fatalf("%s step %d: session predicts %v on %v, a fresh round %v on %v",
						name, step, got.PredictedTotal, got.Hosts, want.PredictedTotal, want.Hosts)
				}
			}
		}
	}

	tp, info := buildPool(t, 3, 4, 11)
	wide, wideInfo := buildPool(t, 1, 13, 11)
	exhaustive := SelectorSpec{Kind: SelectorExhaustive}
	for _, c := range []struct {
		name    string
		tp      *grid.Topology
		info    Information
		sel     SelectorSpec
		maxSets int
		frozen  bool
	}{
		{"greedy", tp, info, SelectorSpec{Kind: SelectorGreedy}, 0, false},
		{"beam", tp, info, SelectorSpec{Kind: SelectorBeam}, 0, false},
		{"cap16", tp, info, exhaustive, 16, false},
		{"13host", wide, wideInfo, exhaustive, 0, false},
		{"cap4095", tp, info, exhaustive, 4095, true},
	} {
		agent, err := NewAgent(c.tp, hat.Jacobi2D(n, 40), &userspec.Spec{MaxResourceSets: c.maxSets}, c.info,
			WithSelector(c.sel))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, err = agent.NewReschedSession(n)
		if c.frozen && err != nil {
			t.Fatalf("%s: %v, want a session", c.name, err)
		}
		if !c.frozen && !errors.Is(err, ErrSessionUniverse) {
			t.Fatalf("%s: %v, want ErrSessionUniverse", c.name, err)
		}
	}
}

// TestReschedulerHeuristicPoolReselects pins the Rescheduler of an agent
// that gets no session: a greedy 3×4 agent re-selects at every
// checkpoint with a fresh Schedule. After a first checkpoint, the
// placement's largest host drops to 5% availability, which moves the
// fresh winner off it: a checkpoint whose hysteresis and migration cost
// allow the move must return exactly the placement a.Schedule(n)
// returns, and one whose hysteresis forbids it must keep the placement
// and trace a keep event. A Rescheduler that froze the greedy sets
// chosen before the drift keeps a band on that host instead.
func TestReschedulerHeuristicPoolReselects(t *testing.T) {
	tp, base := buildPool(t, 3, 4, 11)
	overlay := map[string]float64{}
	col := obs.NewCollector()
	const n = 400
	a, err := NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"},
		NewOverlayInformation(base, overlay), WithSelector(SelectorSpec{Kind: SelectorGreedy}), WithTracer(col))
	if err != nil {
		t.Fatal(err)
	}
	start, err := a.Schedule(n)
	if err != nil {
		t.Fatal(err)
	}
	current := start.Placement
	move, stay := a.Rescheduler(n, 0.1), a.Rescheduler(n, 0.99)
	lastResched := func() obs.Event {
		var last obs.Event
		for _, e := range col.Events() {
			if e.Type == obs.EvReschedule {
				last = e
			}
		}
		return last
	}
	// A checkpoint before the drift: a Rescheduler that froze its
	// candidate sets here would pick from stale ones after it.
	move(1, current)

	overlay[start.Hosts[0]] = 0.05
	want, err := a.Schedule(n)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want.Placement, current) {
		t.Fatal("the drift did not move the fresh winner")
	}
	if got := move(2, current); !reflect.DeepEqual(got, want.Placement) {
		t.Fatalf("checkpoint returned %v, want the fresh schedule's %v (last event %+v)", got, want.Placement, lastResched())
	}
	if e := lastResched(); e.Verdict != "migrate" {
		t.Fatalf("move: event %+v, want migrate", e)
	}
	if p := stay(2, current); p != nil {
		t.Fatalf("hysteresis 0.99: moved to %v", p)
	}
	if e := lastResched(); e.Verdict != "keep" || e.Reason != "hysteresis" {
		t.Fatalf("hysteresis 0.99: event %+v, want keep/hysteresis", e)
	}
}

// TestReschedulerUnchangedViewKeeps pins that a checkpoint compares the
// current and the fresh placement priced the same way. On 3×4 pools
// (seeds 1, 2, 3, 11) at n = 400, under every selector, a checkpoint
// over an unchanged view finds the fresh schedule is the current
// placement, so it must keep it on hysteresis. Comparing the fresh
// schedule's PredictedIterTime, which prices border exchange against
// zero-row chain neighbours, with the current placement's estimate made
// every one of these checkpoints migrate to its own placement.
func TestReschedulerUnchangedViewKeeps(t *testing.T) {
	const n = 400
	for _, seed := range []int64{1, 2, 3, 11} {
		tp, info := buildPool(t, 3, 4, seed)
		for _, kind := range []SelectorKind{SelectorExhaustive, SelectorGreedy, SelectorBeam} {
			name := fmt.Sprintf("seed %d %s", seed, kind)
			col := obs.NewCollector()
			a, err := NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"}, info,
				WithSelector(SelectorSpec{Kind: kind}), WithTracer(col))
			if err != nil {
				t.Fatal(err)
			}
			s, err := a.Schedule(n)
			if err != nil {
				t.Fatal(err)
			}
			if p := a.Rescheduler(n, 0)(1, s.Placement); p != nil {
				t.Errorf("%s: unchanged view moved %v to %v", name, s.Placement, p)
			}
			var last obs.Event
			for _, e := range col.Events() {
				if e.Type == obs.EvReschedule {
					last = e
				}
			}
			if last.Verdict != "keep" || last.Reason != "hysteresis" {
				t.Errorf("%s: event %+v, want keep/hysteresis", name, last)
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

// nanLinkInfo is a batched source whose one link reports a NaN
// bandwidth.
type nanLinkInfo struct {
	Information
	rb  routeBatcher
	nan *grid.Link
}

func (i nanLinkInfo) routeTopology() *grid.Topology { return i.rb.routeTopology() }

func (i nanLinkInfo) linkBandwidth(l *grid.Link) float64 {
	if l == i.nan {
		return math.NaN()
	}
	return i.rb.linkBandwidth(l)
}

// TestSessionNaNInputCarries: a NaN forecast that does not change must
// not keep a session busy. On the 3×4 pool, once through a batched
// source with a NaN link on the pool's routes and once through a
// generic source that reports a NaN bandwidth for every pair, the
// second Round of an unchanged source carries, and a quiescent round
// allocates nothing. Compared with !=, a NaN read as changed on every
// round.
func TestSessionNaNInputCarries(t *testing.T) {
	tp, base := buildPool(t, 3, 4, 11)
	hosts := tp.Hosts()
	const n = 600
	for _, src := range []struct {
		name string
		info Information
	}{
		{"batched-nan-link", nanLinkInfo{base, base.(routeBatcher), tp.RouteAt(hosts[0].Index(), hosts[1].Index())[0]}},
		{"generic-nan-pairs", routeInfo{base, 1e-3, math.NaN()}},
	} {
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, src.info)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := agent.NewReschedSession(n)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if _, _, err := sess.Round(); err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if _, st, err := sess.Round(); err != nil || !st.Carried || st.Rescored != 0 {
			t.Fatalf("%s: unchanged round 2: %+v, %v; want carried", src.name, st, err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := sess.Round(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: unchanged Round allocates %v objects/op, want 0", src.name, allocs)
		}
	}
}

// TestSessionViewMatchesSnapshot: a session's view, refreshed in place,
// must equal a fresh SnapshotInformation over its pool after every
// Round, bit for bit in each availability and each pair's latency and
// bandwidth, and the round must count exactly the inputs whose bits
// changed since the previous fresh snapshot: pool hosts' availability,
// and the links on the pool's routes (batched source) or the ordered
// pairs (generic source). Random availability steps, NaN among them,
// drive a 3×4 pool behind stopped NWS forecasts; a loaded 2×6 grid also
// advances its clock between rounds, so link bandwidths move, read
// through the batched oracle and pair by pair.
func TestSessionViewMatchesSnapshot(t *testing.T) {
	tp, nwsInfo := buildPool(t, 3, 4, 7)
	eng := sim.NewEngine()
	loaded := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 2, PerCluster: 6, Seed: 7})
	inputs := []struct {
		name string
		tp   *grid.Topology
		info Information
		eng  *sim.Engine
	}{
		{"nws-3x4", tp, nwsInfo, nil},
		{"loaded-2x6-batched", loaded, OracleInformation(loaded), eng},
		{"loaded-2x6-generic", loaded, genericInfo{OracleInformation(loaded)}, eng},
	}
	const n = 600
	rng := rand.New(rand.NewSource(5))
	for _, in := range inputs {
		hosts := in.tp.Hosts()
		overlay := map[string]float64{}
		info := NewOverlayInformation(in.info, overlay)
		agent, err := NewAgent(in.tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := agent.NewReschedSession(n)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		pool := sess.Pool()
		var prev *InfoSnapshot
		hostsMoved, linksMoved := 0, 0
		for step := 0; step < 12; step++ {
			name := fmt.Sprintf("%s/step%d", in.name, step)
			if in.eng != nil && rng.Intn(2) == 0 {
				if err := in.eng.RunUntil(in.eng.Now() + 30); err != nil {
					t.Fatal(err)
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				v := 0.05 + 0.95*rng.Float64()
				if rng.Intn(4) == 0 {
					v = math.NaN()
				}
				overlay[hosts[rng.Intn(len(hosts))].Name] = v
			}
			_, st, err := sess.Round()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh := SnapshotInformation(info, pool)
			view := sess.view
			for i := range pool {
				if !sameFloat(view.avail[i], fresh.avail[i]) {
					t.Fatalf("%s: %s availability %v, fresh %v", name, pool[i], view.avail[i], fresh.avail[i])
				}
				for j := range pool {
					if i == j {
						continue
					}
					lat, bw := view.routeAt(i, j)
					flat, fbw := fresh.routeAt(i, j)
					if !sameFloat(lat, flat) || !sameFloat(bw, fbw) {
						t.Fatalf("%s: route %s→%s (%v, %v), fresh (%v, %v)", name, pool[i], pool[j], lat, bw, flat, fbw)
					}
				}
			}
			if prev != nil {
				hostsChanged, linksChanged := 0, 0
				for i := range pool {
					if !sameFloat(prev.avail[i], fresh.avail[i]) {
						hostsChanged++
					}
				}
				if fresh.rb != nil {
					for _, l := range fresh.links {
						if !sameFloat(prev.linkBW[l.Index()], fresh.linkBW[l.Index()]) {
							linksChanged++
						}
					}
				} else {
					for k := range fresh.lat {
						if !sameFloat(prev.lat[k], fresh.lat[k]) || !sameFloat(prev.bw[k], fresh.bw[k]) {
							linksChanged++
						}
					}
				}
				if st.ChangedHosts != hostsChanged || st.ChangedLinks != linksChanged {
					t.Fatalf("%s: round counted %d hosts and %d links changed, want %d and %d",
						name, st.ChangedHosts, st.ChangedLinks, hostsChanged, linksChanged)
				}
				hostsMoved += hostsChanged
				linksMoved += linksChanged
			}
			prev = fresh
		}
		if hostsMoved == 0 || (in.eng != nil) != (linksMoved > 0) {
			t.Fatalf("%s: %d host and %d link changes over the steps", in.name, hostsMoved, linksMoved)
		}
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
// candidate sets, sequential) skips the sets its compute bound rules
// out against the best desirability prefix, chains the rest into one
// backing array, prices them on the strip kernel and builds a
// placement for the winner only. A candidate keeps its chain instead
// of copying host names, so nothing is allocated per planned set (569
// here): the 58 allocations are the snapshot, the walk's tables,
// candidate slice growth, and the winner.
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
// Spec filters out every host: every fresh round fails, so every
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
