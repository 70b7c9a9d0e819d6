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
	"apples/internal/userspec"
)

// BenchmarkEvaluate sweeps the candidate-evaluation engine across pool
// sizes and evaluation modes on warmed NWS-backed cluster-of-clusters
// scenarios. The 8- and 12-host pools enumerate every subset (255 and
// 4095 candidate sets); 32, 64 and 128 hosts use desirability prefixes.
// Pools up to 64 hosts are evaluated inline and the 128-host pool on
// GOMAXPROCS workers, so the sweep straddles the fan-out boundary.
// "schedule" is Agent.Schedule, which prunes sets that cannot beat the
// best so far; on the 8- and 12-host pools its bounded walk skips,
// before chaining them, the sets whose bound exceeds the best
// desirability prefix's score (24–28 µs and 0.14–0.19 ms on a 2-vCPU
// Xeon with go1.24.0, from 74–96 µs and 2.5–3.0 ms when every set was
// chained first). "explained" is ScheduleExplained(n, 1), which
// plans every set to rank them, so the cost of a full ranking stays
// visible.
func BenchmarkEvaluate(b *testing.B) {
	pools := []struct {
		name          string
		clusters, per int
	}{
		{"8host", 2, 4},
		{"12host", 3, 4},
		{"32host", 8, 4},
		{"64host", 8, 8},
		{"128host", 8, 16},
	}
	modes := []struct {
		name  string
		round func(a *core.Agent, n int) (*core.Schedule, error)
	}{
		{"schedule", (*core.Agent).Schedule},
		{"explained", func(a *core.Agent, n int) (*core.Schedule, error) {
			s, _, err := a.ScheduleExplained(n, 1)
			return s, err
		}},
	}
	const n = 2000
	for _, p := range pools {
		for _, m := range modes {
			b.Run(p.name+"/"+m.name, func(b *testing.B) {
				agent, err := expt.NewScaleAgent(p.clusters, p.per, n, 11)
				if err != nil {
					b.Fatal(err)
				}
				var sched *core.Schedule
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if sched, err = m.round(agent, n); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sched.CandidatesConsidered), "candidate_sets")
				b.ReportMetric(float64(sched.CandidatesPlanned), "planned_sets")
			})
		}
	}
}

// BenchmarkSelect sweeps the selector families across grid-scale pools
// — the "past the 2^n wall" benchmark. Each iteration is one full
// scheduling round (snapshot, selection, plan/estimate, reduce) on a
// dedicated oracle-informed cluster-of-clusters. The exhaustive
// selector's large-pool fallback yields one desirability prefix per
// pool size and lays each out by nearest neighbour, O(pool³) pair-cost
// reads per round, so it is skipped at 2048 hosts, where one round
// takes about 6 s (2-vCPU Xeon, go1.24).
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
		{"beam", core.SelectorSpec{Kind: core.SelectorBeam}},
	}
	const n = 4000
	for _, p := range pools {
		for _, s := range selectors {
			b.Run(p.name+"/"+s.name, func(b *testing.B) {
				if p.name == "2048host" && s.name == "exhaustive" {
					b.Skip("prefix fallback lays out O(pool³) pair costs per round: about 6 s at this size")
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

// BenchmarkResched measures the rescheduling session against the full
// per-tick blueprint round it replaces — the kHz-rate loop of a
// long-running application re-asking "is my placement still right?"
// every simulated second. Every session round takes the bounded walk
// an Agent round takes under each user metric: seeded with the
// previous winner, re-priced, it skips the sets whose metric bound
// cannot beat it. "full" rebuilds snapshot + selection + plan/estimate
// per tick (the Rescheduler's path); "cold" pays session construction
// plus a first round each iteration, whose walk is seeded with the
// best desirability prefix, as "full"'s is;
// "delta1" perturbs one host's availability through a live overlay
// between ticks, so each tick is one bounded round (its min-time
// allocations are gated by TestSessionDeltaRoundAllocs); "nodelta" is
// the quiescent steady state, which must run allocation-free (gated by
// TestSessionSteadyStateAllocFree). The min-time variants are
// "12host/<shape>"; "12host/max-speedup/<shape>" and
// "12host/min-cost/<shape>" run the same pool, whose hosts carry uneven
// cost rates, under the other two metrics.
func BenchmarkResched(b *testing.B) {
	const n = 2000
	for _, mt := range []struct {
		prefix string
		metric userspec.Metric
	}{
		{"12host/", userspec.MinExecutionTime},
		{"12host/max-speedup/", userspec.MaxSpeedup},
		{"12host/min-cost/", userspec.MinCost},
	} {
		scenario := func(b *testing.B) (*core.Agent, map[string]float64) {
			agent, overlay, err := expt.NewMetricReschedScenario(3, 4, n, 11, mt.metric)
			if err != nil {
				b.Fatal(err)
			}
			return agent, overlay
		}
		session := func(b *testing.B, agent *core.Agent) *core.ReschedSession {
			sess, err := agent.NewReschedSession(n)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sess.Round(); err != nil {
				b.Fatal(err)
			}
			return sess
		}
		b.Run(mt.prefix+"full", func(b *testing.B) {
			agent, _ := scenario(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agent.Schedule(n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mt.prefix+"cold", func(b *testing.B) {
			agent, _ := scenario(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				session(b, agent)
			}
		})
		b.Run(mt.prefix+"delta1", func(b *testing.B) {
			agent, overlay := scenario(b)
			sess := session(b, agent)
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
		if mt.metric != userspec.MinExecutionTime {
			continue
		}
		b.Run(mt.prefix+"nodelta", func(b *testing.B) {
			agent, _ := scenario(b)
			sess := session(b, agent)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sess.Round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
// across pool sizes on the same warmed cluster-of-clusters scenarios as
// BenchmarkEvaluate. A pool of h hosts enumerates h + h·(h−1) mappings
// (singles plus ordered pairs), each parameterizing the analytic
// pipeline model and tuning the transfer unit; every pool here is at
// most 64 hosts, so the Coordinator evaluates them inline.
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
	const surfaceFunctions = 600
	for _, p := range pools {
		b.Run(p.name, func(b *testing.B) {
			agent, err := expt.NewScalePipelineAgent(p.clusters, p.per, surfaceFunctions, 11)
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
