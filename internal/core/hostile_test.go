package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"apples/internal/hat"
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
	{"beam", SelectorSpec{Kind: SelectorBeam, BeamWidth: 8}},
}

// TestNonFiniteAvailabilityActsAsZero pins how rounds read a
// non-finite availability forecast: exactly like 0. One pool host's
// forecast is overridden with each value under every selector family,
// and Schedule, ScheduleExplained, a session opened on the value, and a
// session that sees it arrive as a delta must all return what they
// return for 0, DeepEqual. Unclamped, NaN broke the desirability sort
// and +Inf ranked the dead host first, so every greedy and beam set
// contained it and no set could be planned. A negative forecast is
// finite and keeps its own ranking; it must still plan. Greedy and
// beam universes get no session: opening one must fail with
// ErrSessionUniverse under every value.
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
		name   string
		v      float64
		finite bool
	}{
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"-1", -1, true},
	}

	for _, sel := range selectorFamilies {
		agent, err := NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"}, info,
			WithSelector(sel.spec))
		if err != nil {
			t.Fatal(err)
		}
		stale := sel.spec.Kind != SelectorExhaustive
		for _, r := range rounds {
			delete(overlay, dead)
			want, err := r.run(agent, func() { overlay[dead] = 0 })
			if r.session && stale {
				if !errors.Is(err, ErrSessionUniverse) {
					t.Fatalf("%s/%s/0: %v, want ErrSessionUniverse", sel.name, r.name, err)
				}
			} else if err != nil {
				t.Fatalf("%s/%s/0: %v", sel.name, r.name, err)
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
				if v.finite {
					if p := got.PredictedTotal; !(p > 0) || math.IsInf(p, 1) {
						t.Fatalf("%s: predicted total %v is not a positive finite time", name, p)
					}
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: differs from availability 0\nzero: %+v\ngot:  %+v", name, want, got)
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
