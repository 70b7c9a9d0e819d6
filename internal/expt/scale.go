package expt

import (
	"fmt"
	"strings"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/jacobi"
	"apples/internal/nws"
	"apples/internal/partition"
	"apples/internal/react"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// ScaleRow is one pool size of the scalability experiment.
type ScaleRow struct {
	Hosts      int
	Candidates int     // resource sets the selector produced
	AppLeS     float64 // measured execution, seconds (virtual)
	Blocked    float64 // uniform blocked baseline on the same pool
}

// Speedup returns Blocked/AppLeS.
func (r ScaleRow) Speedup() float64 { return r.Blocked / r.AppLeS }

// Scalability measures the agent beyond the paper's 8-host testbed: pool
// sizes up to 64 hosts across a cluster-of-clusters metacomputer. Past 12
// hosts the Resource Selector abandons exhaustive subsets for
// desirability prefixes; this experiment verifies the schedules stay good
// (vs the blocked baseline). It reports simulated times only; the
// planning cost is measured by BenchmarkEvaluate and the bench module.
func Scalability(sizes [][2]int, n int, seed int64) ([]ScaleRow, error) {
	if len(sizes) == 0 {
		sizes = [][2]int{{2, 4}, {4, 4}, {8, 4}, {8, 8}}
	}
	if n == 0 {
		n = 2000
	}
	var rows []ScaleRow
	for _, cp := range sizes {
		clusters, per := cp[0], cp[1]
		build := func() (*sim.Engine, *grid.Topology, *nws.Service, error) {
			eng := sim.NewEngine()
			eng.SetEventLimit(200_000_000)
			tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
				Clusters: clusters, PerCluster: per, Seed: seed,
			})
			svc := nws.NewService(eng, 10)
			svc.WatchTopology(tp)
			if err := eng.RunUntil(600); err != nil {
				return nil, nil, nil, err
			}
			svc.Stop()
			return eng, tp, svc, nil
		}

		// AppLeS run.
		_, tp, svc, err := build()
		if err != nil {
			return nil, err
		}
		tpl := hat.Jacobi2D(n, 40)
		agent, err := core.NewAgent(tp, tpl, &userspec.Spec{Decomposition: "strip"},
			core.NWSInformation(svc, tp))
		if err != nil {
			return nil, err
		}
		sched, err := agent.Schedule(n)
		if err != nil {
			return nil, fmt.Errorf("scale %dx%d: %w", clusters, per, err)
		}
		res, err := jacobi.Run(tp, sched.Placement, jacobi.Config{Iterations: 40})
		if err != nil {
			return nil, err
		}

		// Blocked baseline on a fresh same-seed pool.
		_, tp2, _, err := build()
		if err != nil {
			return nil, err
		}
		blockedP, err := partition.Blocked(n, tp2.HostNames(), 8)
		if err != nil {
			return nil, err
		}
		blocked, err := jacobi.Run(tp2, blockedP, jacobi.Config{Iterations: 40})
		if err != nil {
			return nil, err
		}

		rows = append(rows, ScaleRow{
			Hosts:      clusters * per,
			Candidates: sched.CandidatesConsidered,
			AppLeS:     res.Time,
			Blocked:    blocked.Time,
		})
	}
	return rows, nil
}

// NewScaleAgent builds a warmed scheduling scenario for the selector
// experiments and benchmarks: a cluster-of-clusters metacomputer
// (`clusters` sites of `per` hosts) with ambient load, an NWS warmed for
// 300 virtual seconds, and an AppLeS for an n x n Jacobi2D configured
// with the given evaluation options.
func NewScaleAgent(clusters, per, n int, seed int64, opts ...core.AgentOption) (*core.Agent, error) {
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed,
	})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, err
	}
	svc.Stop()
	return core.NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"},
		core.NWSInformation(svc, tp), opts...)
}

// NewGridAgent builds a dedicated (quiet, oracle-informed)
// cluster-of-clusters scheduling scenario. It exists for the selector
// benchmarks and smoke tests on grid-scale pools, where NWS warmup
// would dominate setup cost without changing what is measured.
func NewGridAgent(clusters, per, n int, seed int64, opts ...core.AgentOption) (*core.Agent, error) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed, Quiet: true,
	})
	return core.NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"},
		core.OracleInformation(tp), opts...)
}

// NewScalePipelineAgent builds a warmed pipeline-scheduling scenario for
// benchmarks: the same cluster-of-clusters
// metacomputer as NewScaleAgent, but driving the pipeline blueprint with
// a 3D-REACT-shaped template (every host runs the generic implementation,
// so all singles and ordered pairs are feasible mappings — a pool of h
// hosts enumerates h + h·(h−1) candidates).
func NewScalePipelineAgent(clusters, per, surfaceFunctions int, seed int64, opts ...core.AgentOption) (*core.PipelineAgent, error) {
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed,
	})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, err
	}
	svc.Stop()
	return core.NewPipelineAgent(tp, hat.React3D(surfaceFunctions), &userspec.Spec{},
		core.NWSInformation(svc, tp), react.Options{}, opts...)
}

// FormatScalability renders the scalability experiment.
func FormatScalability(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("Scalability — cluster-of-clusters pools (Jacobi2D, 40 iterations)\n")
	sb.WriteString("  hosts  candidates   AppLeS(s)  Blocked(s)  Blocked/AppLeS\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %5d  %10d  %10.2f  %10.2f  %13.2fx\n",
			r.Hosts, r.Candidates, r.AppLeS, r.Blocked, r.Speedup())
	}
	return sb.String()
}
