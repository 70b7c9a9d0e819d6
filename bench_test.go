package apples_test

// Benchmark harness: one benchmark per paper table/figure plus the
// DESIGN.md ablations. Each benchmark regenerates its experiment end to
// end (testbed construction, NWS warmup, scheduling, simulated execution)
// and reports the reproduced headline numbers as custom metrics, so
// `go test -bench=. -benchmem` doubles as the reproduction driver.
// cmd/expt prints the same experiments as full paper-style tables.

import (
	"testing"

	"apples/internal/core"
	"apples/internal/expt"
)

// BenchmarkEvaluate sweeps the candidate-evaluation engine across pool
// sizes and evaluation modes on warmed NWS-backed cluster-of-clusters
// scenarios. The 8- and 12-host pools enumerate every subset (255 and
// 4095 candidate sets); 32 and 64 hosts use desirability prefixes.
// "snapshot" resolves the pool once and evaluates on one worker;
// "parallel" adds the worker pool; "pruned" adds best-so-far pruning.
func BenchmarkEvaluate(b *testing.B) {
	pools := []struct {
		name          string
		clusters, per int
	}{
		{"8host", 2, 4},
		{"12host", 3, 4},
		{"32host", 8, 4},
		{"64host", 8, 8},
	}
	modes := []struct {
		name string
		opts []core.AgentOption
	}{
		{"snapshot", []core.AgentOption{core.WithParallelism(1)}},
		{"parallel", []core.AgentOption{core.WithParallelism(4)}},
		{"pruned", []core.AgentOption{core.WithParallelism(4), core.WithPruning(true)}},
	}
	const n = 2000
	for _, p := range pools {
		for _, m := range modes {
			b.Run(p.name+"/"+m.name, func(b *testing.B) {
				agent, err := expt.NewScaleAgent(p.clusters, p.per, n, 11, m.opts...)
				if err != nil {
					b.Fatal(err)
				}
				var considered int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sched, err := agent.Schedule(n)
					if err != nil {
						b.Fatal(err)
					}
					considered = sched.CandidatesConsidered
				}
				b.ReportMetric(float64(considered), "candidate_sets")
			})
		}
	}
}

// BenchmarkSelect sweeps the selector families across grid-scale pools
// — the "past the 2^n wall" benchmark. Each iteration is one full
// scheduling round (snapshot, selection, plan/estimate, reduce) on a
// dedicated oracle-informed cluster-of-clusters. The exhaustive
// selector's large-pool fallback enumerates one prefix per pool size
// (O(pool²) evaluation cost), so it is skipped at 2048 hosts where a
// single round takes seconds.
func BenchmarkSelect(b *testing.B) {
	pools := []struct {
		name          string
		clusters, per int
	}{
		{"128host", 8, 16},
		{"512host", 32, 16},
		{"2048host", 128, 16},
	}
	selectors := []struct {
		name string
		spec core.SelectorSpec
	}{
		{"exhaustive", core.SelectorSpec{Kind: core.SelectorExhaustive}},
		{"greedy", core.SelectorSpec{Kind: core.SelectorGreedy}},
		{"beam", core.SelectorSpec{Kind: core.SelectorBeam, BeamWidth: 8}},
		{"lpga", core.SelectorSpec{Kind: core.SelectorLPGA, Seed: 1}},
	}
	const n = 4000
	for _, p := range pools {
		for _, s := range selectors {
			b.Run(p.name+"/"+s.name, func(b *testing.B) {
				if p.name == "2048host" && s.name == "exhaustive" {
					b.Skip("prefix fallback is O(pool²) per round at this size")
				}
				agent, err := expt.NewGridAgent(p.clusters, p.per, n, 7, core.WithSelector(s.spec))
				if err != nil {
					b.Fatal(err)
				}
				var considered int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sched, err := agent.Schedule(n)
					if err != nil {
						b.Fatal(err)
					}
					considered = sched.CandidatesConsidered
				}
				b.ReportMetric(float64(considered), "candidate_sets")
			})
		}
	}
}

// BenchmarkResched measures the delta-aware rescheduling session
// against the full per-tick blueprint round it replaces — the kHz-rate
// loop of a long-running application re-asking "is my placement still
// right?" every simulated second. "full" rebuilds snapshot + selection
// + plan/estimate per tick (the old Rescheduler path); "cold" pays
// session construction plus a first full round each iteration;
// "delta1" perturbs one host's availability through a live overlay
// between ticks, so the session re-plans only the candidate sets that
// host touches; "nodelta" is the quiescent steady state, which must
// run allocation-free (gated by TestSessionSteadyStateAllocFree). The
// 512-host variant drives the chunked-bitmask/lazy-link path under the
// greedy selector.
func BenchmarkResched(b *testing.B) {
	const n = 2000
	b.Run("12host/full", func(b *testing.B) {
		agent, _, err := expt.NewReschedScenario(3, 4, n, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := agent.Schedule(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("12host/cold", func(b *testing.B) {
		agent, _, err := expt.NewReschedScenario(3, 4, n, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess, err := agent.NewReschedSession(n)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sess.Round(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("12host/delta1", func(b *testing.B) {
		agent, overlay, err := expt.NewReschedScenario(3, 4, n, 11)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := agent.NewReschedSession(n)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.Round(); err != nil {
			b.Fatal(err)
		}
		host := sess.Pool()[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			overlay[host] = 0.3 + 0.1*float64(i%2)
			if _, _, err := sess.Round(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("12host/nodelta", func(b *testing.B) {
		agent, _, err := expt.NewReschedScenario(3, 4, n, 11)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := agent.NewReschedSession(n)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.Round(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.Round(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("512host/greedy-delta1", func(b *testing.B) {
		agent, overlay, err := expt.NewGridReschedScenario(32, 16, 4000, 7,
			core.WithSelector(core.SelectorSpec{Kind: core.SelectorGreedy}))
		if err != nil {
			b.Fatal(err)
		}
		sess, err := agent.NewReschedSession(4000)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.Round(); err != nil {
			b.Fatal(err)
		}
		host := sess.Pool()[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			overlay[host] = 0.3 + 0.1*float64(i%2)
			if _, _, err := sess.Round(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkService measures the multi-tenant scheduling daemon: 64
// registered agents sharing one information source and one 12-host
// pool, rounds submitted round-robin through the service's admission
// queue. Every round after the first reuses the copy-on-write snapshot
// (shared-ratio approaches 1), so the cost per round is queue dispatch
// plus selection and planning over the frozen view. The greedy
// selector is the serving headline; the exhaustive variant prices the
// same pipeline under 4095-set enumeration for contrast.
func BenchmarkService(b *testing.B) {
	const n = 600
	run := func(name string, opts ...core.AgentOption) {
		b.Run(name, func(b *testing.B) {
			sched, clients, err := expt.NewServiceScenario(64, 3, 4, n, 11, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer sched.Close()
			// One round per tenant first, so tenant-side lazy setup is
			// out of the timed region.
			for _, c := range clients {
				if _, err := c.Schedule(n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clients[i%len(clients)].Schedule(n); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			b.ReportMetric(sched.SharedRatio(), "shared-ratio")
		})
	}
	run("64tenant/12host/greedy", core.WithSelector(core.SelectorSpec{Kind: core.SelectorGreedy}))
	run("64tenant/12host/exhaustive")
}

// BenchmarkPipelineEvaluate sweeps the pipeline blueprint's evaluation
// across pool sizes and worker-pool widths on the same warmed
// cluster-of-clusters scenarios as BenchmarkEvaluate. A pool of h hosts
// enumerates h + h·(h−1) mappings (singles plus ordered pairs), each
// parameterizing the analytic pipeline model and tuning the transfer
// unit; since the shared Coordinator fans mappings across the worker pool
// with a deterministic (score, index) reduce, "parallel4" must pick the
// identical mapping to "sequential" while finishing >1.5x sooner.
func BenchmarkPipelineEvaluate(b *testing.B) {
	pools := []struct {
		name          string
		clusters, per int
	}{
		{"8host", 2, 4},
		{"12host", 3, 4},
		{"32host", 8, 4},
		{"64host", 8, 8},
	}
	modes := []struct {
		name string
		opts []core.AgentOption
	}{
		{"sequential", []core.AgentOption{core.WithParallelism(1)}},
		{"parallel4", []core.AgentOption{core.WithParallelism(4)}},
		{"parallel", []core.AgentOption{core.WithParallelism(0)}},
	}
	const surfaceFunctions = 600
	for _, p := range pools {
		for _, m := range modes {
			b.Run(p.name+"/"+m.name, func(b *testing.B) {
				agent, err := expt.NewScalePipelineAgent(p.clusters, p.per, surfaceFunctions, 11, m.opts...)
				if err != nil {
					b.Fatal(err)
				}
				var mappings int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sched, err := agent.Schedule()
					if err != nil {
						b.Fatal(err)
					}
					mappings = sched.CandidatesConsidered
				}
				b.ReportMetric(float64(mappings), "mappings")
			})
		}
	}
}

// BenchmarkFig3ApplesPartition regenerates Figure 3: the AppLeS partition
// of Jacobi2D on the loaded SDSC/PCL network.
func BenchmarkFig3ApplesPartition(b *testing.B) {
	b.ReportAllocs()
	var hosts int
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig3(2000, 11)
		if err != nil {
			b.Fatal(err)
		}
		hosts = len(res.Hosts)
	}
	b.ReportMetric(float64(hosts), "hosts_used")
}

// BenchmarkFig4NonuniformStrip regenerates Figure 4: the compile-time
// speed-weighted strip partition.
func BenchmarkFig4NonuniformStrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig4(2000, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5JacobiComparison regenerates Figure 5: AppLeS vs static
// Strip vs HPF Blocked execution times (reduced sweep; cmd/expt runs the
// full one). The reported metrics are the mean speedups over the sweep —
// the paper's headline is 2-8x.
func BenchmarkFig5JacobiComparison(b *testing.B) {
	var vsStrip, vsBlocked float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig5(expt.Fig5Config{
			Sizes: []int{1000, 2000}, Trials: 1, Iterations: 50, Seed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		vsStrip, vsBlocked = 0, 0
		for _, r := range rows {
			vsStrip += r.SpeedupVsStrip() / float64(len(rows))
			vsBlocked += r.SpeedupVsBlocked() / float64(len(rows))
		}
	}
	b.ReportMetric(vsStrip, "speedup_vs_strip")
	b.ReportMetric(vsBlocked, "speedup_vs_blocked")
}

// BenchmarkFig6MemoryAware regenerates Figure 6: AppLeS vs SP-2-only
// Blocked around the ~3700^2 memory crossover.
func BenchmarkFig6MemoryAware(b *testing.B) {
	var collapse float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig6(expt.Fig6Config{
			Sizes: []int{3200, 4000}, Trials: 1, Iterations: 20, Seed: 23,
		})
		if err != nil {
			b.Fatal(err)
		}
		collapse = rows[1].BlockedSP2 / rows[1].AppLeS
	}
	b.ReportMetric(collapse, "post_spill_blocked_over_apples")
}

// BenchmarkReactPipeline regenerates the Section 2.3 numbers: >16 h
// single-site, <5 h distributed, pipeline-unit sweep.
func BenchmarkReactPipeline(b *testing.B) {
	var single, dist float64
	for i := 0; i < b.N; i++ {
		res, err := expt.React(600)
		if err != nil {
			b.Fatal(err)
		}
		single, dist = res.SingleC90Hours, res.DistributedHours
	}
	b.ReportMetric(single, "single_site_hours")
	b.ReportMetric(dist, "distributed_hours")
}

// BenchmarkNileSkimDecision regenerates the Section 2.1 site-manager
// decision curve: skim vs remote access vs compute-at-data.
func BenchmarkNileSkimDecision(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Nile(30000, 6, 31)
		if err != nil {
			b.Fatal(err)
		}
		crossover = float64(res.SkimCrossover)
	}
	b.ReportMetric(crossover, "skim_crossover_passes")
}

// BenchmarkAblationForecast regenerates ablation A1: oracle vs NWS vs
// static information sources.
func BenchmarkAblationForecast(b *testing.B) {
	var staticOverNWS float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblationForecast([]int{1500}, 1, 41)
		if err != nil {
			b.Fatal(err)
		}
		staticOverNWS = rows[0].Static / rows[0].NWS
	}
	b.ReportMetric(staticOverNWS, "static_over_nws")
}

// BenchmarkAblationRisk regenerates ablation A4: risk posture sweep.
func BenchmarkAblationRisk(b *testing.B) {
	var hostsShrink float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblationRisk(1000, []float64{0, 2}, []int64{101, 202})
		if err != nil {
			b.Fatal(err)
		}
		hostsShrink = rows[0].MeanHosts - rows[1].MeanHosts
	}
	b.ReportMetric(hostsShrink, "hosts_dropped_at_k2")
}

// BenchmarkMultiApp regenerates the Section 3 uncoordinated-agents
// interference experiment.
func BenchmarkMultiApp(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		res, err := expt.MultiApp(1000, 60, 61)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.SlowdownA()
	}
	b.ReportMetric(slowdown, "mutual_slowdown")
}

// BenchmarkAdaptation regenerates the Section 3.2 redistribution
// experiment: a mid-run load shift on the Alpha farm, static vs adaptive
// AppLeS.
func BenchmarkAdaptation(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Adaptation(1500, 200, 11)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Rows[0].Time / res.Rows[1].Time
	}
	b.ReportMetric(speedup, "adaptive_speedup")
}

// BenchmarkAblationSelection regenerates ablation A3: resource-selection
// search budget vs schedule quality.
func BenchmarkAblationSelection(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblationSelection(1500, []int{0, 4}, 43)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[1].Measured / rows[0].Measured
	}
	b.ReportMetric(ratio, "budget4_over_exhaustive")
}
