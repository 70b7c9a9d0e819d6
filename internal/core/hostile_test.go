package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// selectorFamilies is one spec of each selector family. Only the
// exhaustive one can back a session on a pool of at most 12 hosts.
var selectorFamilies = []struct {
	name string
	spec SelectorSpec
}{
	{"exhaustive", SelectorSpec{Kind: SelectorExhaustive}},
	{"greedy", SelectorSpec{Kind: SelectorGreedy}},
	{"beam", SelectorSpec{Kind: SelectorBeam}},
}

// TestNonFiniteAvailabilityActsAsZero pins how rounds read a
// non-finite availability forecast, exactly like 0, and one above 1,
// exactly like 1. One pool host's forecast is overridden with each
// value under every selector family, and Schedule, ScheduleExplained, a
// session opened on the value, and a session that sees it arrive as a
// delta must all return what they return for the value it acts as,
// DeepEqual. Unclamped, NaN broke the desirability sort and +Inf ranked
// the dead host first, so every greedy and beam set contained it and no
// set could be planned; a host at 1e300 won alone with a predicted
// total near 1e-300 s. A negative forecast is finite and keeps its own
// ranking; it must still plan. Greedy and beam universes get no
// session: opening one must fail with ErrSessionUniverse under every
// value.
func TestNonFiniteAvailabilityActsAsZero(t *testing.T) {
	tp, base := buildPool(t, 3, 4, 11)
	overlay := map[string]float64{}
	info := NewOverlayInformation(base, overlay)
	const n = 2000
	dead := tp.Hosts()[0].Name

	type roundFunc func(a *Agent, set func()) (*Schedule, error)
	rounds := []struct {
		name    string
		session bool
		run     roundFunc
	}{
		{"Schedule", false, func(a *Agent, set func()) (*Schedule, error) {
			set()
			return a.Schedule(n)
		}},
		{"ScheduleExplained", false, func(a *Agent, set func()) (*Schedule, error) {
			set()
			s, _, err := a.ScheduleExplained(n, 1)
			return s, err
		}},
		{"session-open", true, func(a *Agent, set func()) (*Schedule, error) {
			set()
			sess, err := a.NewReschedSession(n)
			if err != nil {
				return nil, err
			}
			s, _, err := sess.Round()
			return s, err
		}},
		{"session-delta", true, func(a *Agent, set func()) (*Schedule, error) {
			sess, err := a.NewReschedSession(n)
			if err != nil {
				return nil, err
			}
			if _, _, err := sess.Round(); err != nil {
				return nil, err
			}
			set()
			s, _, err := sess.Round()
			return s, err
		}},
	}
	values := []struct {
		name  string
		v     float64
		actAs float64 // the availability it must schedule like; NaN: any finite plan
	}{
		{"NaN", math.NaN(), 0},
		{"+Inf", math.Inf(1), 0},
		{"-Inf", math.Inf(-1), 0},
		{"MaxFloat64", math.MaxFloat64, 1},
		{"1e300", 1e300, 1},
		{"1+1e-9", 1 + 1e-9, 1},
		{"-1", -1, math.NaN()},
	}

	for _, sel := range selectorFamilies {
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"}, info,
			WithSelector(sel.spec))
		if err != nil {
			t.Fatal(err)
		}
		stale := sel.spec.Kind != SelectorExhaustive
		for _, r := range rounds {
			want := map[float64]*Schedule{}
			for _, like := range []float64{0, 1} {
				delete(overlay, dead)
				s, err := r.run(agent, func() { overlay[dead] = like })
				if r.session && stale {
					if !errors.Is(err, ErrSessionUniverse) {
						t.Fatalf("%s/%s/%v: %v, want ErrSessionUniverse", sel.name, r.name, like, err)
					}
				} else if err != nil {
					t.Fatalf("%s/%s/%v: %v", sel.name, r.name, like, err)
				}
				want[like] = s
			}
			for _, v := range values {
				name := sel.name + "/" + r.name + "/" + v.name
				delete(overlay, dead)
				got, err := r.run(agent, func() { overlay[dead] = v.v })
				if r.session && stale {
					if !errors.Is(err, ErrSessionUniverse) {
						t.Fatalf("%s: %v, want ErrSessionUniverse", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if math.IsNaN(v.actAs) {
					if p := got.PredictedTotal; !(p > 0) || math.IsInf(p, 1) {
						t.Fatalf("%s: predicted total %v is not a positive finite time", name, p)
					}
					continue
				}
				if !reflect.DeepEqual(want[v.actAs], got) {
					t.Fatalf("%s: differs from availability %v\nwant: %+v\ngot:  %+v", name, v.actAs, want[v.actAs], got)
				}
			}
		}
	}
}

// fuzzBytes reads a fuzz input one byte at a time, yielding 0 once it
// runs out, so every input decodes to some scenario.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// fuzzAvailability decodes one overlay value: the hostile forecasts 0,
// NaN, ±Inf and -1, a dropped override (del: back to the forecast), or
// an availability in [0.05, 1].
func fuzzAvailability(b byte) (v float64, del bool) {
	switch b % 8 {
	case 0:
		return 0, false
	case 1:
		return math.NaN(), false
	case 2:
		return math.Inf(1), false
	case 3:
		return math.Inf(-1), false
	case 4:
		return -1, false
	case 5:
		return 0, true
	}
	return 0.05 + 0.95*float64(b>>3)/31, false
}

// FuzzSessionDelta drives twin sessions through arbitrary availability
// delta sequences and demands that every Round() pick exactly the
// schedule its twin's unbounded FullRound() picks (DeepEqual apart from
// CandidatesPlanned, which only a bounded round lowers). A greedy or
// beam agent must be refused a session with ErrSessionUniverse; its
// steps then check the fresh pruned Schedule a Rescheduler runs against
// the unpruned ScheduleExplained the same way.
//
// Input: a header byte each for the pool (SDSC/PCL, 3×4, 2×6), its
// seed, the metric, the selector family, and whether pool host 0 has no
// deliverable speed; then up to eight steps of a count byte k (0–15)
// and k (host, value) pairs. Step 0 applies before the sessions open,
// so it also shapes the frozen universe.
//
// On bounded rounds the test replays the prune rule against the twin's
// exact scores: the session must skip exactly the sets whose bound
// strictly exceeds the incumbent (the previous winner's score, lowered
// by each planned set in universe order), and every skipped set's bound
// must not exceed its exact score. The committed corpus under
// testdata/fuzz/FuzzSessionDelta replays in every `go test` run.
func FuzzSessionDelta(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 1, 3, 5, 2, 1, 7, 2, 0, 9, 1, 4, 1, 200, 0, 1, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		pools := [][2]int{{0, 0}, {3, 4}, {2, 6}}
		p := pools[int(in.next())%len(pools)]
		tp, base := buildPool(t, p[0], p[1], int64(in.next()%8)+1)
		metric := []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost}[in.next()%3]
		sel := selectorFamilies[int(in.next())%len(selectorFamilies)]
		hosts := tp.Hosts()
		if in.next()%2 == 1 {
			hosts[0].Speed = 0
		}
		overlay := map[string]float64{}
		info := NewOverlayInformation(base, overlay)
		apply := func() {
			for k := in.next() % 16; k > 0; k-- {
				h := hosts[int(in.next())%len(hosts)].Name
				if v, del := fuzzAvailability(in.next()); del {
					delete(overlay, h)
				} else {
					overlay[h] = v
				}
			}
		}

		const n = 600
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{Metric: metric}, info, WithSelector(sel.spec))
		if err != nil {
			t.Fatal(err)
		}
		apply()
		sess, serr := agent.NewReschedSession(n)
		twin, terr := agent.NewReschedSession(n)
		if sel.spec.Kind != SelectorExhaustive {
			if !errors.Is(serr, ErrSessionUniverse) || !errors.Is(terr, ErrSessionUniverse) {
				t.Fatalf("%s session open: %v, %v; want ErrSessionUniverse", sel.name, serr, terr)
			}
		} else if serr != nil || terr != nil {
			t.Fatalf("session open: %v, %v", serr, terr)
		}
		for step := 0; step < 8; step++ {
			if step > 0 {
				if len(in) == 0 {
					return
				}
				apply()
			}
			var (
				got, want  *Schedule
				st         DeltaStats
				gerr, werr error
				prev       = -1
			)
			if sess != nil {
				prev = sess.winner
				got, st, gerr = sess.Round()
				want, _, werr = twin.FullRound()
			} else {
				got, gerr = agent.Schedule(n)
				want, _, werr = agent.ScheduleExplained(n, 1)
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d: error divergence: %v vs %v", step, gerr, werr)
			}
			if gerr != nil && !errors.Is(gerr, ErrNoFeasiblePlan) {
				t.Fatalf("step %d: untyped error %v", step, gerr)
			}
			if gerr == nil {
				if pt := got.PredictedTotal; !(pt > 0) || math.IsInf(pt, 1) {
					t.Fatalf("step %d: predicted total %v is not a positive finite time", step, pt)
				}
			}
			if !samePick(want, got) || (sess != nil && !sess.bounded && !reflect.DeepEqual(want, got)) {
				t.Fatalf("step %d: round diverged from full recomputation\nfull:  %+v\nround: %+v", step, want, got)
			}
			if sess == nil || !sess.bounded || st.Rescored+st.Pruned == 0 {
				continue // a fresh round, an unbounded one, or a quiescent carry
			}
			if st.Rescored+st.Pruned != st.Considered {
				t.Fatalf("step %d: rescored %d and pruned %d of %d", step, st.Rescored, st.Pruned, st.Considered)
			}
			inc := math.Inf(1)
			if prev >= 0 && twin.feasible[prev] {
				inc = twin.score[prev]
			}
			pruned := 0
			for c := range twin.candMask {
				if c == prev {
					continue
				}
				if b := sess.bound(c); b > inc {
					pruned++
					if twin.feasible[c] && b > twin.score[c] {
						t.Fatalf("step %d: set %d pruned with bound %v above its score %v", step, c, b, twin.score[c])
					}
					continue
				}
				if twin.feasible[c] {
					inc = min(inc, twin.score[c])
				}
			}
			if pruned != st.Pruned {
				t.Fatalf("step %d: session pruned %d sets, the strict bound rule prunes %d", step, st.Pruned, pruned)
			}
		}
	})
}

// infoFuzzPools are FuzzInformation's agents: a 12-host pool under the
// exhaustive and the greedy selector, evaluated inline, and a 72-host
// greedy pool, evaluated by workers.
var infoFuzzPools = []struct {
	name          string
	clusters, per int
	spec          SelectorSpec
}{
	{"12host-exhaustive", 3, 4, SelectorSpec{Kind: SelectorExhaustive}},
	{"12host-greedy", 3, 4, SelectorSpec{Kind: SelectorGreedy}},
	{"72host-greedy", 6, 12, SelectorSpec{Kind: SelectorGreedy}},
}

// genericInfo hides a source's batched route resolution, so every view
// reads it pair by pair.
type genericInfo struct{ Information }

// fuzzForecast decodes one hostile forecast of a quantity whose normal
// values are around scale: 0, NaN, ±Inf, -scale, the largest or the
// smallest positive float, or a value in [0.05, 1]·scale.
func fuzzForecast(b byte, scale float64) float64 {
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return -scale
	case 5:
		return math.MaxFloat64
	case 6:
		return math.SmallestNonzeroFloat64
	}
	return scale * (0.05 + 0.95*float64(b>>4)/15)
}

// FuzzInformation feeds hostile forecasts across the Information
// boundary into whole scheduling rounds. Each input sets arbitrary host
// availabilities, link bandwidths and link latencies (NaN, ±Inf, 0,
// negative, huge) on a quiet grid, then schedules through a generic
// source, read pair by pair, and through a batched overlay. Schedule
// must return a finite PredictedTotal or an error wrapping
// ErrNoFeasiblePlan or ErrNoFeasibleHosts, never panic, and pick the
// hosts and total the unpruned ScheduleExplained(n, 1) picks; both
// sources must pick the same.
//
// Input: a byte for the pool (infoFuzzPools) and one for its seed, then
// a count byte k (0–15) and k (kind, target, value) triples: kind picks
// availability, bandwidth or latency, target the host or link, value a
// fuzzForecast. The committed corpus under testdata/fuzz/FuzzInformation
// replays in every `go test` run.
func FuzzInformation(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 0, 1, 1, 2, 1, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		p := infoFuzzPools[int(in.next())%len(infoFuzzPools)]
		tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{
			Clusters: p.clusters, PerCluster: p.per, Seed: int64(in.next()%8) + 1, Quiet: true})
		hosts, links := tp.Hosts(), tp.Links()
		overlay := map[string]float64{}
		for k := in.next() % 16; k > 0; k-- {
			kind, target, v := in.next()%3, int(in.next()), in.next()
			switch kind {
			case 0:
				overlay[hosts[target%len(hosts)].Name] = fuzzForecast(v, 1)
			case 1:
				links[target%len(links)].Bandwidth = fuzzForecast(v, 10)
			default:
				links[target%len(links)].Latency = fuzzForecast(v, 1e-3)
			}
		}

		const n = 600
		var picks []*Schedule
		for _, src := range []struct {
			name string
			info Information
		}{
			{"generic", NewOverlayInformation(genericInfo{OracleInformation(tp)}, overlay)},
			{"batched", NewOverlayInformation(OracleInformation(tp), overlay)},
		} {
			name := p.name + "/" + src.name
			agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{}, src.info, WithSelector(p.spec))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, gerr := agent.Schedule(n)
			want, _, werr := agent.ScheduleExplained(n, 1)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: error divergence: %v vs %v", name, gerr, werr)
			}
			if gerr != nil {
				if !errors.Is(gerr, ErrNoFeasiblePlan) && !errors.Is(gerr, ErrNoFeasibleHosts) {
					t.Fatalf("%s: untyped error %v", name, gerr)
				}
				picks = append(picks, nil)
				continue
			}
			if pt := got.PredictedTotal; math.IsNaN(pt) || math.IsInf(pt, 0) {
				t.Fatalf("%s: predicted total %v is not finite", name, pt)
			}
			if !reflect.DeepEqual(got.Hosts, want.Hosts) ||
				math.Float64bits(got.PredictedTotal) != math.Float64bits(want.PredictedTotal) {
				t.Fatalf("%s: pruned round picked %v (%v), unpruned %v (%v)",
					name, got.Hosts, got.PredictedTotal, want.Hosts, want.PredictedTotal)
			}
			picks = append(picks, got)
		}
		if g, b := picks[0], picks[1]; (g == nil) != (b == nil) || g != nil && (!reflect.DeepEqual(g.Hosts, b.Hosts) ||
			math.Float64bits(g.PredictedTotal) != math.Float64bits(b.PredictedTotal)) {
			t.Fatalf("%s: generic source picked %+v, batched %+v", p.name, g, b)
		}
	})
}

// routeInfo reports the same latency and bandwidth for every route,
// pair by pair.
type routeInfo struct {
	Information
	lat, bw float64
}

func (r routeInfo) RouteLatency(a, b string) float64   { return r.lat }
func (r routeInfo) RouteBandwidth(a, b string) float64 { return r.bw }

// TestHostileRouteFreezesFinite pins how views freeze route forecasts
// the strip kernel cannot price: a latency that is NaN, ±Inf or above
// maxRouteLatency freezes as maxRouteLatency, and a bandwidth that is
// NaN or below deadRouteBandwidth as 0. The eager view reads them pair
// by pair from a generic source; the lazy view composes them from the
// same values set on every link, and every route it composes must
// stay within those bounds. Unfrozen, an infinite border cost made the
// balancer's row rounding loop without end, so Schedule never
// returned; on both views it must return a finite total.
func TestHostileRouteFreezesFinite(t *testing.T) {
	tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{Clusters: 6, PerCluster: 12, Seed: 3, Quiet: true})
	hosts, links := tp.Hosts(), tp.Links()
	const n = 600
	cases := []struct {
		name            string
		lat, bw         float64
		wantLat, wantBW float64
	}{
		{"nan-latency", math.NaN(), 10, maxRouteLatency, 10},
		{"inf-latency", math.Inf(1), 10, maxRouteLatency, 10},
		{"-inf-latency", math.Inf(-1), 10, maxRouteLatency, 10},
		{"huge-latency", math.MaxFloat64, 10, maxRouteLatency, 10},
		{"nan-bandwidth", 1e-3, math.NaN(), 1e-3, 0},
		{"tiny-bandwidth", 1e-3, math.SmallestNonzeroFloat64, 1e-3, 0},
	}
	schedule := func(name string, pool []*grid.Host, info Information, spec SelectorSpec) {
		t.Helper()
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 10), &userspec.Spec{Accessible: hostNames(pool)}, info, WithSelector(spec))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sched, err := agent.Schedule(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pt := sched.PredictedTotal; math.IsNaN(pt) || math.IsInf(pt, 0) {
			t.Fatalf("%s: predicted total %v is not finite", name, pt)
		}
	}
	for _, c := range cases {
		pool := hosts[:12]
		info := routeInfo{OracleInformation(tp), c.lat, c.bw}
		if lat, bw := SnapshotInformation(info, hostNames(pool)).routeAt(0, 1); !sameFloat(lat, c.wantLat) || !sameFloat(bw, c.wantBW) {
			t.Fatalf("%s/eager: froze latency %v, bandwidth %v; want %v, %v", c.name, lat, bw, c.wantLat, c.wantBW)
		}
		schedule(c.name+"/eager", pool, info, SelectorSpec{})

		for _, l := range links {
			l.Latency, l.Bandwidth = c.lat, c.bw
		}
		view := roundSnapshot(OracleInformation(tp), hosts)
		if pairs := view.Stats().Pairs; pairs != 0 {
			t.Fatalf("%s/lazy: %d-host view materialized %d pairs", c.name, len(hosts), pairs)
		}
		for j := 1; j < len(hosts); j++ {
			lat, bw := view.routeAt(0, j)
			if !(lat <= maxRouteLatency) || !(bw == 0 || bw >= deadRouteBandwidth) {
				t.Fatalf("%s/lazy: route to %s froze latency %v, bandwidth %v", c.name, hosts[j].Name, lat, bw)
			}
		}
		schedule(c.name+"/lazy", hosts, OracleInformation(tp), SelectorSpec{Kind: SelectorGreedy})
	}
}

// sameFloat reports whether two floats have the same bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestProblemSizeOverflowRejected: every entry point that takes an n×n
// problem size rejects one that is not positive or whose n² grid
// overflows int. Unchecked, n = 1<<40 wrapped n² and scheduled a 1-host
// placement that predicted 0 s.
func TestProblemSizeOverflowRejected(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 11)
	agent, err := NewAgent(tp, hat.Jacobi2D(600, 10), &userspec.Spec{}, info)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := agent.Schedule(600)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewSchedService()
	defer svc.Close()
	tenant, err := svc.Register("t", agent)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func(n int) error
	}{
		{"Schedule", func(n int) error { _, err := agent.Schedule(n); return err }},
		{"Tenant.Submit", func(n int) error { _, err := tenant.Submit(n); return err }},
		{"NewReschedSession", func(n int) error { _, err := agent.NewReschedSession(n); return err }},
		{"EstimatePlacement", func(n int) error { _, err := agent.EstimatePlacement(n, sched.Placement); return err }},
	}
	for _, e := range entries {
		for _, n := range []int{0, -1, 3037000500, 1 << 40, math.MaxInt} {
			if err := e.run(n); err == nil {
				t.Errorf("%s(%d) succeeded, want an error", e.name, n)
			}
		}
	}
}

// TestEstimatePlacementRejectsDuplicateHost: a placement that works one
// host twice cannot be priced by pool position, so EstimatePlacement
// returns an error instead of an estimate.
func TestEstimatePlacementRejectsDuplicateHost(t *testing.T) {
	tp, info := buildPool(t, 3, 4, 11)
	agent, err := NewAgent(tp, hat.Jacobi2D(600, 10), &userspec.Spec{}, info)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := agent.Schedule(600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.EstimatePlacement(600, sched.Placement); err != nil {
		t.Fatalf("distinct placement: %v", err)
	}
	p := *sched.Placement
	p.Assignments = slices.Clone(p.Assignments)
	var worked []int
	for i, a := range p.Assignments {
		if a.Points > 0 {
			worked = append(worked, i)
		}
	}
	if len(worked) < 2 {
		t.Fatalf("schedule works %d hosts, want at least 2", len(worked))
	}
	p.Assignments[worked[1]].Host = p.Assignments[worked[0]].Host
	if est, err := agent.EstimatePlacement(600, &p); err == nil {
		t.Fatalf("placement working %s twice estimated %v, want an error", p.Assignments[worked[0]].Host, est)
	}
}
