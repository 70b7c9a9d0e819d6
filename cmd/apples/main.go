// Command apples schedules and executes one distributed Jacobi2D run on
// the simulated Figure 2 metacomputer, printing the chosen schedule, its
// prediction, and the measured execution time.
//
// Usage:
//
//	apples -n 2000 -iters 100 -seed 11 -info nws
//	apples -n 4000 -sp2 -info oracle
//	apples -n 2000 -listen :9090    # live /metrics, /trace/recent, pprof
//	apples -n 2000 -store ./history # durable NWS history + warm start
//
// With -serve the binary runs as a multi-tenant scheduling daemon
// instead of executing one run: -tenants agents register with a shared
// core.SchedService and HTTP clients drive rounds through
// /schedule?tenant=ID&n=SIZE (see cmd/loadgen -target):
//
//	apples -serve -tenants 8 -listen 127.0.0.1:9090
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"apples"
)

func main() {
	n := flag.Int("n", 2000, "problem size (n x n grid)")
	iters := flag.Int("iters", 100, "Jacobi iterations")
	seed := flag.Int64("seed", 11, "ambient-load seed")
	info := flag.String("info", "nws", "information source: nws, oracle, static")
	sp2 := flag.Bool("sp2", false, "add the two SP-2 nodes (Figure 6 testbed)")
	quiet := flag.Bool("quiet", false, "dedicated testbed (no ambient load)")
	warm := flag.Float64("warmup", 600, "seconds of virtual time to warm sensors")
	topo := flag.Bool("topology", false, "print the testbed (Figure 2) and exit")
	viaRMS := flag.Bool("rms", false, "actuate through the PVM-style rms substrate")
	explain := flag.Int("explain", 0, "also print the top-K candidate schedules the agent weighed")
	metric := flag.String("metric", "min-time", "user performance metric: min-time, speedup, cost")
	selector := flag.String("selector", "exhaustive", "resource selector family: exhaustive, greedy, beam")
	spill := flag.Float64("spill", 25, "estimator out-of-memory penalty multiplier")
	saveSched := flag.String("save-schedule", "", "write the chosen placement as JSON to this file")
	loadSched := flag.String("load-schedule", "", "skip scheduling; execute the placement JSON from this file")
	traceFile := flag.String("trace", "", "write a JSONL decision trace of the scheduling round to this file")
	metrics := flag.Bool("metrics", false, "print the run's metrics registry (rounds, candidates, sensing, sim events) on exit")
	listen := flag.String("listen", "", "serve live observability on this address (/metrics, /healthz, /trace/recent, /debug/pprof); keeps serving after the run until interrupted")
	ringSize := flag.Int("trace-ring", 512, "events retained for /trace/recent when -listen is set")
	storeDir := flag.String("store", "", "durable measurement store directory: NWS samples are appended, and existing history warm-starts the forecasters (-info nws only)")
	doAudit := flag.Bool("audit", false, "audit decision quality: join each run's predicted completion time with the measured actual, score every forecaster against the last-value baseline, and watch for drift (adds /audit and /audit/series with -listen; prints the report on exit)")
	auditStoreDir := flag.String("audit-store", "", "offline audit: replay this measurement store directory through fresh forecaster banks, print per-series forecast skill, and exit")
	serve := flag.Bool("serve", false, "run as a multi-tenant scheduling daemon (/schedule, /tenants) instead of executing one run")
	tenants := flag.Int("tenants", 8, "agents registered as tenants t0..tN-1 in -serve mode")
	queueDepth := flag.Int("queue-depth", 1024, "admission-queue bound in -serve mode (full queue -> 429)")
	flag.Parse()

	if *auditStoreDir != "" {
		auditStoreAndExit(*auditStoreDir)
		return
	}

	if *serve && *listen == "" {
		*listen = "127.0.0.1:0"
	}
	var reg *apples.Metrics
	if *metrics || *listen != "" {
		reg = apples.NewMetrics()
	}
	var tracer *apples.JSONLTracer
	var traceBuf *bufio.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		traceBuf = bufio.NewWriter(f)
		tracer = apples.NewJSONLTracer(traceBuf)
	}

	// The trace sink: the JSONL file, the live ring, or both. The ring
	// backs /trace/recent; the stage timer shares the same sink so span
	// events land next to the decision events they time.
	var ring *apples.RingTracer
	var sink apples.Tracer
	if tracer != nil {
		sink = tracer
	}
	var stages *apples.StageTimer
	if *listen != "" {
		ring = apples.NewRingTracer(*ringSize)
		if sink != nil {
			sink = apples.MultiTracer{tracer, ring}
		} else {
			sink = ring
		}
		stages = apples.NewStageTimer(reg, sink, nil)
	}

	// The audit engine joins every run's prediction with its measured
	// actual and scores the forecasters; it must exist before the
	// observability server binds so /audit and the drift health checks
	// mount.
	var aud *apples.AuditEngine
	if *doAudit {
		var audOpts []apples.AuditOption
		if reg != nil {
			audOpts = append(audOpts, apples.WithAuditMetrics(reg))
		}
		if sink != nil {
			audOpts = append(audOpts, apples.WithAuditTracer(sink))
		}
		aud = apples.NewAuditEngine(audOpts...)
	}

	var server *apples.ObsServer
	if *listen != "" && !*serve {
		// In -serve mode the scheduling-service mux (which embeds the
		// observability endpoints) binds this address instead.
		var srvOpts []apples.ObsServeOption
		if aud != nil {
			srvOpts = append(srvOpts, apples.WithObsAudit(aud))
		}
		var err error
		server, err = apples.ServeObservability(*listen, reg, ring, srvOpts...)
		if err != nil {
			fail(err)
		}
		defer server.Close()
		fmt.Printf("observability listening on %s\n", server.URL())
	}

	eng := apples.NewEngine()
	if reg != nil {
		eng.SetMetrics(reg)
	}
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: *seed, Quiet: *quiet, WithSP2: *sp2})

	var store *apples.MeasurementStore
	if *storeDir != "" {
		if *info != "nws" {
			fail(fmt.Errorf("-store records NWS sensing history; it needs -info nws, not %q", *info))
		}
		var stOpts []apples.StoreOption
		if reg != nil {
			stOpts = append(stOpts, apples.WithStoreMetrics(reg))
		}
		var err error
		store, err = apples.OpenMeasurementStore(*storeDir, stOpts...)
		if err != nil {
			fail(err)
		}
		defer store.Close()
		if rec := store.Recovery(); rec.DroppedBytes > 0 {
			fmt.Printf("store %s: recovered after unclean shutdown, dropped %d torn trailing bytes\n",
				*storeDir, rec.DroppedBytes)
		}
	}

	if *topo {
		fmt.Print(tp.Describe())
		return
	}

	if *loadSched != "" {
		f, err := os.Open(*loadSched)
		if err != nil {
			fail(err)
		}
		p, err := apples.ReadPlacement(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if err := eng.RunUntil(*warm); err != nil {
			fail(err)
		}
		res, err := apples.RunJacobi(tp, p, apples.JacobiConfig{Iterations: *iters})
		if err != nil {
			fail(err)
		}
		fmt.Printf("replayed %s placement from %s: %d iterations in %.2f s\n",
			p.Kind, *loadSched, *iters, res.Time)
		return
	}

	var source apples.Information
	switch *info {
	case "nws":
		var nwsOpts []apples.NWSOption
		if reg != nil {
			nwsOpts = append(nwsOpts, apples.WithNWSMetrics(reg))
		}
		if stages != nil {
			nwsOpts = append(nwsOpts, apples.WithNWSStageTiming(stages))
		}
		if store != nil {
			nwsOpts = append(nwsOpts, apples.WithNWSStore(store))
		}
		if aud != nil {
			nwsOpts = append(nwsOpts, apples.WithNWSResiduals(aud))
		}
		svc := apples.NewNWS(eng, 10, nwsOpts...)
		if store != nil {
			replayed, err := svc.RestoreFromStore(store)
			if err != nil {
				fail(err)
			}
			if replayed > 0 {
				fmt.Printf("store %s: warm-started forecasters from %d records\n", *storeDir, replayed)
			}
		}
		svc.WatchTopology(tp)
		if err := eng.RunUntil(*warm); err != nil {
			fail(err)
		}
		svc.Stop()
		if store != nil {
			if err := svc.StoreErr(); err != nil {
				fail(err)
			}
			if err := store.Sync(); err != nil {
				fail(err)
			}
		}
		source = apples.NWSInformation(svc, tp)
	case "oracle":
		if err := eng.RunUntil(*warm); err != nil {
			fail(err)
		}
		source = apples.OracleInformation(tp)
	case "static":
		if err := eng.RunUntil(*warm); err != nil {
			fail(err)
		}
		source = apples.StaticInformation(tp)
	default:
		fail(fmt.Errorf("unknown -info %q", *info))
	}

	spec := &apples.UserSpec{Decomposition: "strip"}
	switch *metric {
	case "min-time":
		spec.Metric = apples.MinExecutionTime
	case "speedup":
		spec.Metric = apples.MaxSpeedup
	case "cost":
		spec.Metric = apples.MinCost
	default:
		fail(fmt.Errorf("unknown -metric %q (want min-time, speedup, or cost)", *metric))
	}

	selSpec, err := apples.ParseSelector(*selector)
	if err != nil {
		fail(err)
	}

	tpl := apples.JacobiTemplate(*n, *iters)
	agentOpts := []apples.AgentOption{
		apples.WithSpillFactor(*spill),
		apples.WithSelector(selSpec),
	}
	if sink != nil {
		agentOpts = append(agentOpts, apples.WithTracer(sink))
	}
	if reg != nil {
		agentOpts = append(agentOpts, apples.WithMetrics(reg))
	}
	if stages != nil {
		agentOpts = append(agentOpts, apples.WithStageTiming(stages))
	}
	if aud != nil {
		agentOpts = append(agentOpts, apples.WithAudit(aud), apples.WithAuditTenant("cli"))
	}

	if *serve {
		serveDaemon(tp, tpl, spec, source, agentOpts, sink, reg, ring, aud, *listen, *tenants, *queueDepth, *n)
		return
	}

	agent, err := apples.NewAgent(tp, tpl, spec, source, agentOpts...)
	if err != nil {
		fail(err)
	}
	if *explain > 0 {
		_, top, err := agent.ScheduleExplained(*n, *explain)
		if err != nil {
			fail(err)
		}
		fmt.Printf("top %d of the agent's candidate schedules (metric=%s):\n", len(top), *metric)
		for i, c := range top {
			fmt.Printf("  #%d  score %10.2f  predicted %8.2f s  hosts=%v\n", i+1, c.Score, c.PredictedTotal, c.Hosts)
		}
		fmt.Println()
	}

	actuator := apples.JacobiActuator(tp, apples.JacobiConfig{Iterations: *iters})
	if *viaRMS {
		actuator = apples.RMSActuator(tp, apples.JacobiConfig{Iterations: *iters})
	}
	sched, measured, err := agent.Run(*n, actuator)
	if err != nil {
		fail(err)
	}
	if *saveSched != "" {
		f, err := os.Create(*saveSched)
		if err != nil {
			fail(err)
		}
		if _, err := sched.Placement.WriteTo(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("placement written to %s\n", *saveSched)
	}

	fmt.Printf("AppLeS schedule for Jacobi2D %dx%d (%d iterations, info=%s)\n", *n, *n, *iters, *info)
	fmt.Printf("  candidate resource sets considered: %d (planned: %d)\n",
		sched.CandidatesConsidered, sched.CandidatesPlanned)
	fmt.Println("  partition:")
	for _, a := range sched.Placement.Assignments {
		if a.Points == 0 {
			continue
		}
		fmt.Printf("    %-10s %7.2f%%  (%d rows)\n", a.Host, 100*sched.Placement.Fraction(a.Host), a.Rows)
	}
	fmt.Printf("  predicted: %8.2f s  (%.4f s/iter)\n", sched.PredictedTotal, sched.PredictedIterTime)
	fmt.Printf("  measured:  %8.2f s  (%.4f s/iter)\n", measured, measured/float64(*iters))
	fmt.Printf("  model error: %+.1f%%\n", 100*(sched.PredictedTotal-measured)/measured)

	if tracer != nil {
		if err := traceBuf.Flush(); err != nil {
			fail(err)
		}
		if err := tracer.Err(); err != nil {
			fail(err)
		}
		fmt.Printf("decision trace written to %s\n", *traceFile)
	}
	if aud != nil {
		fmt.Println()
		printAuditReport(aud)
	}
	if reg != nil && *metrics {
		fmt.Println()
		if _, err := reg.WriteTo(os.Stdout); err != nil {
			fail(err)
		}
	}
	if server != nil {
		fmt.Printf("run complete; observability still serving on %s (Ctrl-C to exit)\n", server.URL())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// serveDaemon registers nTenants identically-configured agents with a
// shared scheduling service and serves /schedule, /tenants, and the
// observability endpoints until interrupted.
func serveDaemon(tp *apples.Topology, tpl *apples.Template, spec *apples.UserSpec, source apples.Information,
	agentOpts []apples.AgentOption, sink apples.Tracer, reg *apples.Metrics, ring *apples.RingTracer,
	aud *apples.AuditEngine, listen string, nTenants, queueDepth, n int) {
	if nTenants <= 0 {
		fail(fmt.Errorf("-serve needs a positive -tenants, got %d", nTenants))
	}
	svcOpts := []apples.SchedServiceOption{apples.WithQueueDepth(queueDepth)}
	if reg != nil {
		svcOpts = append(svcOpts, apples.WithServiceMetrics(reg))
	}
	if sink != nil {
		svcOpts = append(svcOpts, apples.WithServiceTracer(sink))
	}
	svc := apples.NewSchedService(svcOpts...)
	defer svc.Close()
	for i := 0; i < nTenants; i++ {
		id := fmt.Sprintf("t%d", i)
		opts := agentOpts
		if aud != nil {
			// Each tenant's joins land in its own audit breakdown row.
			opts = append(opts[:len(opts):len(opts)], apples.WithAuditTenant(id))
		}
		agent, err := apples.NewAgent(tp, tpl, spec, source, opts...)
		if err != nil {
			fail(err)
		}
		if _, err := svc.Register(id, agent); err != nil {
			fail(err)
		}
	}
	var srvOpts []apples.ObsServeOption
	if aud != nil {
		srvOpts = append(srvOpts, apples.WithObsAudit(aud))
	}
	server, err := apples.ServeScheduler(listen, svc, reg, ring, srvOpts...)
	if err != nil {
		fail(err)
	}
	defer server.Close()
	fmt.Printf("scheduling service on %s (%d tenants t0..t%d)\n", server.URL(), nTenants, nTenants-1)
	fmt.Printf("  try: %s/schedule?tenant=t0&n=%d  then /tenants and /metrics  (Ctrl-C to exit)\n", server.URL(), n)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// auditStoreAndExit replays a measurement store through fresh
// forecaster banks and prints the per-series forecast-skill table —
// the offline audit path: no simulation, no sensors, just the durable
// history and the deterministic forecasters.
func auditStoreAndExit(dir string) {
	st, err := apples.OpenMeasurementStore(dir, apples.StoreReadOnly())
	if err != nil {
		fail(err)
	}
	aud := apples.NewAuditEngine()
	n, err := apples.AuditMeasurementStore(st, aud)
	st.Close()
	if err != nil {
		fail(err)
	}
	fmt.Printf("audited %d sensor records from %s\n", n, dir)
	printSeriesTable(aud.SeriesSnapshot())
}

func printSeriesTable(series []apples.AuditSeriesReport) {
	fmt.Println("  kind       series            samples  naiveMAE  forecaster        skill      mae  selected")
	for _, s := range series {
		for i, f := range s.Forecasters {
			lead := fmt.Sprintf("%-9s  %-16s  %7d  %8.4f", s.Kind, s.Series, s.Samples, s.NaiveMAE)
			if i > 0 {
				lead = fmt.Sprintf("%-9s  %-16s  %7s  %8s", "", "", "", "")
			}
			fmt.Printf("  %s  %-16s  %+6.3f  %7.4f  %8d\n", lead, f.Name, f.Skill, f.MAE, f.Selected)
		}
	}
}

// printAuditReport renders the run's decision-quality audit: the
// predicted-vs-actual joins by tenant/selector/host-class, the drift
// state, and the forecaster skill table.
func printAuditReport(aud *apples.AuditEngine) {
	snap := aud.Snapshot()
	fmt.Printf("audit: %d joined, %d orphaned, %d expired, %d pending, %d drift alarms\n",
		snap.Joined, snap.Orphaned, snap.Expired, snap.Pending, snap.Alarms)
	for _, g := range snap.Groups {
		fmt.Printf("  %s/%s/%s: %d joins, bias %+.2f s, mae %.2f s, mape %.3f\n",
			g.Tenant, g.Selector, g.HostClass, g.Joins, g.Bias, g.MAE, g.MAPE)
	}
	if len(snap.Degraded) > 0 {
		fmt.Printf("  degraded: %v\n", snap.Degraded)
	}
	if series := aud.SeriesSnapshot(); len(series) > 0 {
		printSeriesTable(series)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "apples:", err)
	// The agent returns typed errors; match them for actionable hints
	// instead of parsing message text.
	switch {
	case errors.Is(err, apples.ErrNoFeasibleHosts):
		fmt.Fprintln(os.Stderr, "apples: hint: the user specification excluded every host; relax its filters")
	case errors.Is(err, apples.ErrNoFeasiblePlan):
		fmt.Fprintln(os.Stderr, "apples: hint: no resource set can hold this problem; try a smaller -n or -sp2")
	case errors.Is(err, apples.ErrBadTemplate):
		fmt.Fprintln(os.Stderr, "apples: hint: the application template does not fit this agent blueprint")
	}
	os.Exit(1)
}
