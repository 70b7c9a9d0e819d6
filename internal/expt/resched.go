package expt

import (
	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/nws"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// NewReschedScenario builds the steady-state rescheduling scenario the
// delta benchmarks and parity sweeps drive: the same warmed NWS
// cluster-of-clusters as NewScaleAgent, but with the information source
// wrapped in an availability overlay. The returned map is live — writing
// a host's availability into it (and deleting it again) is how callers
// inject per-round deltas without advancing the simulation, which is
// exactly the small-perturbation regime a kHz rescheduling loop sees
// between forecaster updates.
func NewReschedScenario(clusters, per, n int, seed int64, opts ...core.AgentOption) (*core.Agent, map[string]float64, error) {
	return NewMetricReschedScenario(clusters, per, n, seed, userspec.MinExecutionTime, opts...)
}

// NewMetricReschedScenario is NewReschedScenario under the user metric
// m, with uneven cost rates: the i-th host is priced at 0.5 + 0.5·(i mod
// 9) per CPU hour, so MinCost rounds weigh price against speed. Under
// the other metrics the rates are never read.
func NewMetricReschedScenario(clusters, per, n int, seed int64, m userspec.Metric, opts ...core.AgentOption) (*core.Agent, map[string]float64, error) {
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed,
	})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, nil, err
	}
	svc.Stop()
	spec := &userspec.Spec{Decomposition: "strip", Metric: m, CostPerCPUHour: map[string]float64{}}
	for i, h := range tp.Hosts() {
		spec.CostPerCPUHour[h.Name] = 0.5 + 0.5*float64(i%9)
	}
	overlay := map[string]float64{}
	info := core.NewOverlayInformation(core.NWSInformation(svc, tp), overlay)
	agent, err := core.NewAgent(tp, hat.Jacobi2D(n, 40), spec, info, opts...)
	if err != nil {
		return nil, nil, err
	}
	return agent, overlay, nil
}
