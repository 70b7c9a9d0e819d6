package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/react"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// This file pins the Coordinator refactor to the pre-refactor behavior:
// legacyAgentSchedule and legacyPipelineSchedule are line-for-line
// transcriptions of the private evaluate loops Agent and PipelineAgent
// had before the generic Coordinator absorbed them. The differential
// tests below must keep both refactored agents bit-identical to these
// oracles across seeds and pool sizes, pruned or not.

// legacyAgentSchedule is the pre-Coordinator sequential Jacobi round:
// snapshot, enumerate, plan+estimate in order, reduce by (score, index).
func legacyAgentSchedule(tp *grid.Topology, tpl *hat.Template, spec *userspec.Spec, baseInfo Information, spillFactor float64, n int) (*Schedule, []Candidate, error) {
	return sequentialAgentSchedule(tp, tpl, spec, baseInfo, spillFactor, n, false)
}

// liveAgentSchedule is legacyAgentSchedule without the snapshot: the
// selector (candidatesDirect), planner and estimator all query the live
// Information source for every value, the way rounds ran before the
// snapshot existed. Agreement with it pins that the snapshot changes no
// value.
func liveAgentSchedule(tp *grid.Topology, tpl *hat.Template, spec *userspec.Spec, baseInfo Information, spillFactor float64, n int) (*Schedule, []Candidate, error) {
	return sequentialAgentSchedule(tp, tpl, spec, baseInfo, spillFactor, n, true)
}

func sequentialAgentSchedule(tp *grid.Topology, tpl *hat.Template, spec *userspec.Spec, baseInfo Information, spillFactor float64, n int, live bool) (*Schedule, []Candidate, error) {
	pool := spec.Filter(tp.Hosts())
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("no hosts")
	}
	names := make([]string, len(pool))
	for i, h := range pool {
		names[i] = h.Name
	}
	info := baseInfo
	if !live {
		info = SnapshotInformation(baseInfo, names)
	}

	pl := &planner{tp: tp, tpl: tpl, info: info}
	es := newEstimator(tp, spec, tpl.Tasks[0].BytesPerUnit, spillFactor, max(tpl.Iterations, 1))
	var sets [][]*grid.Host
	if live {
		sets = directSelector{info}.candidatesDirect(pool, spec.MaxResourceSets)
	} else {
		sets = poolCandidates(tp, info, pool, spec.MaxResourceSets)
	}

	solo := math.Inf(1)
	if spec.Metric == userspec.MaxSpeedup {
		for _, h := range pool {
			p, costs, _, err := pl.plan(n, []*grid.Host{h})
			if err != nil {
				continue
			}
			if t := es.iterTime(p, costs) * float64(es.iterations); t < solo {
				solo = t
			}
		}
	}

	var cands []Candidate
	for _, set := range sets {
		p, costs, _, err := pl.plan(n, set)
		if err != nil {
			continue
		}
		iterT := es.iterTime(p, costs)
		hosts := make([]string, len(set))
		for j, h := range set {
			hosts[j] = h.Name
		}
		cands = append(cands, Candidate{
			Hosts:             hosts,
			PredictedIterTime: iterT,
			PredictedTotal:    iterT * float64(es.iterations),
			Score:             es.score(iterT, p, solo),
			Placement:         p,
		})
	}

	bestIdx, bestSc := -1, math.Inf(1)
	for i, c := range cands {
		if c.Score < bestSc {
			bestIdx, bestSc = i, c.Score
		}
	}
	if bestIdx < 0 {
		return nil, nil, fmt.Errorf("no feasible plan")
	}
	c := cands[bestIdx]
	s := &Schedule{
		Placement:            c.Placement,
		PredictedIterTime:    c.PredictedIterTime,
		PredictedTotal:       c.PredictedTotal,
		Hosts:                append([]string(nil), c.Hosts...),
		InfoSource:           baseInfo.Source(),
		CandidatesConsidered: len(sets),
		CandidatesPlanned:    len(cands),
	}
	sort.SliceStable(s.Hosts, func(i, j int) bool {
		return s.Placement.Fraction(s.Hosts[i]) > s.Placement.Fraction(s.Hosts[j])
	})
	return s, cands, nil
}

// legacyPipelineSchedule is the pre-Coordinator sequential pipeline
// round: snapshot, score every single machine then every ordered pair
// (with the literal 0.01 availability clamps the old code carried), pick
// the minimum score with earliest-index ties.
func legacyPipelineSchedule(tp *grid.Topology, tpl *hat.Template, spec *userspec.Spec, baseInfo Information, opt react.Options) (*PipelineSchedule, []Candidate, error) {
	pool := spec.Filter(tp.Hosts())
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("no hosts")
	}
	names := make([]string, len(pool))
	for i, h := range pool {
		names[i] = h.Name
	}
	info := SnapshotInformation(baseInfo, names)

	var cands []Candidate
	for _, h := range pool {
		t, err := react.PredictSingleSite(tp, tpl, h.Name, opt)
		if err != nil {
			continue
		}
		avail := info.Availability(h.Name)
		if avail <= 0 {
			avail = 0.01
		}
		t /= avail
		cands = append(cands, Candidate{Hosts: []string{h.Name}, PredictedTotal: t, Score: t})
	}

	minU, maxU := tpl.PipelineUnitMin, tpl.PipelineUnitMax
	if minU == 0 {
		minU = 1
	}
	if maxU < minU {
		maxU = minU
	}
	for _, p := range pool {
		for _, c := range pool {
			if p.Name == c.Name {
				continue
			}
			m, err := react.NewModel(tp, tpl, p.Name, c.Name, opt)
			if err != nil {
				continue
			}
			availP := info.Availability(p.Name)
			availC := info.Availability(c.Name)
			if availP <= 0 {
				availP = 0.01
			}
			if availC <= 0 {
				availC = 0.01
			}
			m.TL /= availP
			m.TD /= availC
			if bw := info.RouteBandwidth(p.Name, c.Name); bw > 0 && bw < 1e29 {
				var comm hat.Comm
				for _, cm := range tpl.Comms {
					if cm.Pattern == hat.PipelineFlow {
						comm = cm
					}
				}
				m.SecPerUnitXfer = comm.BytesPerUnit / 1e6 / bw
			}
			m.Latency = info.RouteLatency(p.Name, c.Name)
			u, t := m.BestUnit(minU, maxU)
			cands = append(cands, Candidate{Hosts: []string{p.Name, c.Name}, PredictedTotal: t, Score: t, Unit: u})
		}
	}

	bestIdx, bestSc := -1, math.Inf(1)
	for i, c := range cands {
		if c.Score < bestSc {
			bestIdx, bestSc = i, c.Score
		}
	}
	if bestIdx < 0 {
		return nil, nil, fmt.Errorf("no feasible mapping")
	}
	c := cands[bestIdx]
	s := &PipelineSchedule{Predicted: c.Score, CandidatesConsidered: len(cands)}
	if len(c.Hosts) == 1 {
		s.SingleSite = c.Hosts[0]
		s.Producer, s.Consumer = c.Hosts[0], c.Hosts[0]
	} else {
		s.Producer, s.Consumer = c.Hosts[0], c.Hosts[1]
		s.Unit = c.Unit
	}
	return s, cands, nil
}

// TestAgentParityWithLegacy pins the refactored Agent to the pre-refactor
// oracle across seeds and pool sizes: the unpruned ScheduleExplained
// round must match it exactly, ranking included, and the pruned
// Schedule round everywhere but the planned count.
func TestAgentParityWithLegacy(t *testing.T) {
	pools := []struct {
		name          string
		clusters, per int
	}{
		{"sdscpcl-8host", 0, 0},
		{"cluster-12host", 3, 4},
	}
	for _, pc := range pools {
		for _, seed := range []int64{3, 11} {
			tp, info := buildPool(t, pc.clusters, pc.per, seed)
			tpl := hat.Jacobi2D(600, 10)
			spec := &userspec.Spec{}

			want, wantCands, err := legacyAgentSchedule(tp, tpl, spec, info, 25, 600)
			if err != nil {
				t.Fatalf("%s seed %d legacy: %v", pc.name, seed, err)
			}

			name := fmt.Sprintf("%s/seed%d", pc.name, seed)
			a, err := NewAgent(tp, tpl, spec, info)
			if err != nil {
				t.Fatal(err)
			}
			got, gotCands, err := a.ScheduleExplained(600, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: schedule diverged from legacy\nlegacy: %v\ngot:    %v", name, want, got)
			}
			if !reflect.DeepEqual(rankCandidates(wantCands, 0), gotCands) {
				t.Fatalf("%s: candidate ranking diverged from legacy", name)
			}
			// Pruning legitimately skips planning dominated sets, so
			// only the planned count may differ.
			pruned, err := a.Schedule(600)
			if err != nil {
				t.Fatalf("%s pruned: %v", name, err)
			}
			pruned.CandidatesPlanned = want.CandidatesPlanned
			if !reflect.DeepEqual(want, pruned) {
				t.Fatalf("%s: pruned schedule diverged from legacy\nlegacy: %v\ngot:    %v", name, want, pruned)
			}
		}
	}
}

// TestPipelineParityWithLegacy pins the refactored PipelineAgent to the
// pre-refactor oracle, on both the paper's CASA pair and a larger loaded
// pool.
func TestPipelineParityWithLegacy(t *testing.T) {
	type poolFn func(t *testing.T) (*grid.Topology, Information)
	pools := []struct {
		name  string
		build poolFn
	}{
		{"casa", func(t *testing.T) (*grid.Topology, Information) {
			tp := grid.CASA(sim.NewEngine())
			return tp, OracleInformation(tp)
		}},
		{"cluster-12host-seed3", func(t *testing.T) (*grid.Topology, Information) {
			return buildPool(t, 3, 4, 3)
		}},
		{"cluster-12host-seed11", func(t *testing.T) (*grid.Topology, Information) {
			return buildPool(t, 3, 4, 11)
		}},
	}
	for _, pc := range pools {
		tp, info := pc.build(t)
		tpl := hat.React3D(100)
		spec := &userspec.Spec{}
		opt := react.Options{}

		want, wantCands, err := legacyPipelineSchedule(tp, tpl, spec, info, opt)
		if err != nil {
			t.Fatalf("%s legacy: %v", pc.name, err)
		}

		a, err := NewPipelineAgent(tp, tpl, spec, info, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCands, err := a.ScheduleExplained(0)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: schedule diverged from legacy\nlegacy: %v\ngot:    %v", pc.name, want, got)
		}
		if !reflect.DeepEqual(rankCandidates(wantCands, 0), gotCands) {
			t.Fatalf("%s: candidate ranking diverged from legacy", pc.name)
		}
	}
}
