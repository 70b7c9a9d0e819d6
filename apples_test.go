package apples_test

import (
	"errors"
	"testing"

	"apples"
)

// TestFacadeEndToEnd drives the whole public surface the way README's
// quickstart does: build the Figure 2 testbed, warm the NWS, schedule with
// an AppLeS agent, and actuate the schedule.
func TestFacadeEndToEnd(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: 42})

	svc := apples.NewNWS(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(600); err != nil {
		t.Fatal(err)
	}

	tpl := apples.JacobiTemplate(1000, 25)
	agent, err := apples.NewAgent(tp, tpl, &apples.UserSpec{Decomposition: "strip"},
		apples.NWSInformation(svc, tp))
	if err != nil {
		t.Fatal(err)
	}
	sched, measured, err := agent.Run(1000, apples.JacobiActuator(tp, apples.JacobiConfig{Iterations: 25}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if measured <= 0 {
		t.Fatalf("measured %v", measured)
	}
}

func TestFacadeBaselinePartitions(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: 1, Quiet: true})
	hosts := tp.HostNames()

	if p, err := apples.UniformStrip(400, hosts, 8); err != nil || p.TotalPoints() != 160000 {
		t.Fatalf("uniform strip: %v %v", p, err)
	}
	weights := make([]float64, len(hosts))
	for i, h := range hosts {
		weights[i] = tp.Host(h).Speed
	}
	if p, err := apples.WeightedStrip(400, hosts, weights, 8); err != nil || p.TotalPoints() != 160000 {
		t.Fatalf("weighted strip: %v %v", p, err)
	}
	if p, err := apples.BlockedPartition(400, hosts, 8); err != nil || p.TotalPoints() != 160000 {
		t.Fatalf("blocked: %v %v", p, err)
	}
}

func TestFacadeReact(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.CASA(eng)
	tpl := apples.ReactTemplate(120)
	prod, cons, unit, pred, err := apples.ChooseReactMapping(tp, tpl, "c90", "paragon", apples.ReactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prod != "c90" || cons != "paragon" || unit < 5 || unit > 20 || pred <= 0 {
		t.Fatalf("mapping %s->%s unit=%d pred=%v", prod, cons, unit, pred)
	}
	res, err := apples.RunReactPipeline(tp, tpl, prod, cons, unit, apples.ReactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("pipeline time %v", res.Time)
	}
}

func TestFacadeExplainAndBlockCyclic(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: 3, Quiet: true})
	agent, err := apples.NewAgent(tp, apples.JacobiTemplate(600, 10),
		&apples.UserSpec{}, apples.OracleInformation(tp))
	if err != nil {
		t.Fatal(err)
	}
	best, top, err := agent.ScheduleExplained(600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || best == nil {
		t.Fatalf("explained: best=%v top=%d", best, len(top))
	}

	p, err := apples.BlockCyclicPartition(120, tp.HostNames(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apples.RunJacobi(tp, p, apples.JacobiConfig{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("block-cyclic run time %v", res.Time)
	}
}

// TestFacadeAgentOptionsAndErrors covers the functional-options surface
// and typed sentinel errors as re-exported by the facade.
func TestFacadeAgentOptionsAndErrors(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: 5, Quiet: true})

	seq, err := apples.NewAgent(tp, apples.JacobiTemplate(600, 10), &apples.UserSpec{},
		apples.OracleInformation(tp),
		apples.WithParallelism(1), apples.WithSpillFactor(30))
	if err != nil {
		t.Fatal(err)
	}
	par, err := apples.NewAgent(tp, apples.JacobiTemplate(600, 10), &apples.UserSpec{},
		apples.OracleInformation(tp),
		apples.WithParallelism(4), apples.WithPruning(true), apples.WithSpillFactor(30))
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Schedule(600)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.Schedule(600)
	if err != nil {
		t.Fatal(err)
	}
	if got.PredictedTotal != want.PredictedTotal {
		t.Fatalf("parallel+pruned %v != sequential %v", got.PredictedTotal, want.PredictedTotal)
	}

	// Candidates accessor on the facade alias.
	top, err := par.Candidates(600, 2)
	if err != nil || len(top) != 2 {
		t.Fatalf("Candidates: %v %v", top, err)
	}

	// Typed errors flow through the facade.
	blocked, err := apples.NewAgent(tp, apples.JacobiTemplate(600, 10),
		&apples.UserSpec{Accessible: []string{"nope"}}, apples.OracleInformation(tp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blocked.Schedule(600); !errors.Is(err, apples.ErrNoFeasibleHosts) {
		t.Fatalf("want ErrNoFeasibleHosts, got %v", err)
	}
	if _, err := apples.NewAgent(tp, apples.ReactTemplate(100), &apples.UserSpec{},
		apples.OracleInformation(tp)); !errors.Is(err, apples.ErrBadTemplate) {
		t.Fatalf("want ErrBadTemplate, got %v", err)
	}
}

func TestFacadeRMS(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: 4, Quiet: true})
	total, err := apples.RunRing(tp, []string{"alpha1", "alpha2", "alpha3"}, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("ring time %v", total)
	}
}

func TestFacadeNile(t *testing.T) {
	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: 2})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	job, err := apples.NileJobFromTemplate(apples.NileTemplate(10000), "alpha2", 3)
	if err != nil {
		t.Fatal(err)
	}
	ds := apples.NileDataset{Name: "roar", Site: "alpha1", Events: 10000, RecordBytes: 20480}
	res, err := apples.RunNile(tp, ds, job, apples.NileSkim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Strategy != apples.NileSkim {
		t.Fatalf("nile result %+v", res)
	}
}
