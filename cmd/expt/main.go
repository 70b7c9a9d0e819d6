// Command expt regenerates the paper's tables and figures on the
// simulated metacomputer and prints them as text tables.
//
// Usage:
//
//	expt -fig all            # everything (default)
//	expt -fig 5 -quick       # just Figure 5, reduced sweep
//	expt -fig react -seed 7
//
// Figures: 3, 4, 5, 6, react, nile, a1 (forecast ablation), a2
// (forecaster ablation), a3 (selection ablation), a4 (risk ablation),
// adapt, fail, multi, wait, scale (cluster-of-clusters pools),
// selector-gap (heuristic selectors' optimality gap), tenant-converge
// (competing agents on one scheduling service: oscillation vs damped
// convergence), replay (record a sensing run to a durable store, replay
// it twice, assert identical decision traces), audit (forecast &
// decision quality: predicted-vs-actual joins, per-series forecast
// skill, drift alarms under injected churn), all.
//
// Every table reports simulated times and predictions only, so two runs
// with the same flags print byte-identical output. Wall-clock costs of
// the scheduler live in the go benchmarks (make bench-*) and the bench
// module.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"apples"
	"apples/internal/expt"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate: 3,4,5,6,react,nile,a1,a2,a3,a4,adapt,fail,multi,wait,scale,selector-gap,tenant-converge,replay,audit,all")
	seed := flag.Int64("seed", 11, "base seed for ambient load")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast run")
	csvDir := flag.String("csv", "", "also write per-figure CSV files into this directory")
	chart := flag.Bool("chart", false, "also render figures as terminal bar charts")
	listen := flag.String("listen", "", "serve live observability while the figures run (/metrics, /healthz, /debug/pprof) — useful for profiling long sweeps")
	flag.Parse()

	// The driver's own live telemetry: how many figures completed, and
	// the pprof endpoints for profiling a long regeneration.
	var reg *apples.Metrics
	var figuresDone *apples.Counter
	if *listen != "" {
		reg = apples.NewMetrics()
		figuresDone = reg.Counter("expt_figures_total")
		server, err := apples.ServeObservability(*listen, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expt: %v\n", err)
			os.Exit(1)
		}
		defer server.Close()
		fmt.Printf("observability listening on %s\n", server.URL())
	}

	writeCSV := func(name string, header []string, cells [][]string) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return expt.WriteCSV(f, header, cells)
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "expt %s: %v\n", name, err)
			// Typed failures carry a usable hint; match them instead of
			// the message text.
			switch {
			case errors.Is(err, apples.ErrNoFeasibleHosts):
				fmt.Fprintln(os.Stderr, "expt: the user specification excluded every host in the testbed")
			case errors.Is(err, apples.ErrNoFeasiblePlan):
				fmt.Fprintln(os.Stderr, "expt: no resource set could hold the problem; shrink -n or grow the pool")
			case errors.Is(err, apples.ErrBadTemplate):
				fmt.Fprintln(os.Stderr, "expt: the application template does not fit the agent blueprint")
			}
			os.Exit(1)
		}
		if figuresDone != nil {
			figuresDone.Inc()
		}
		fmt.Println()
	}

	run("3", func() error {
		res, err := expt.Fig3(2000, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatPartition(
			fmt.Sprintf("Figure 3 — AppLeS partitioning of Jacobi2D (%dx%d, loaded SDSC/PCL net)", res.N, res.N),
			res.Hosts, res.Shares))
		fmt.Printf("  predicted iteration time: %.4f s\n", res.PredictedIterTime)
		return nil
	})

	run("4", func() error {
		res, err := expt.Fig4(2000, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatPartition(
			fmt.Sprintf("Figure 4 — Non-uniform (speed-weighted) strip partitioning (%dx%d)", res.N, res.N),
			res.Hosts, res.Shares))
		return nil
	})

	run("5", func() error {
		cfg := expt.Fig5Config{Seed: *seed}
		if *quick {
			cfg = expt.Fig5Config{Sizes: []int{1000, 1500, 2000}, Trials: 1, Iterations: 50, Seed: *seed}
		}
		rows, err := expt.Fig5(cfg)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatFig5(rows))
		if *chart {
			fmt.Println()
			fmt.Print(expt.Fig5Chart(rows))
		}
		h, c := expt.Fig5CSV(rows)
		return writeCSV("fig5", h, c)
	})

	run("6", func() error {
		cfg := expt.Fig6Config{Seed: *seed}
		if *quick {
			cfg = expt.Fig6Config{Sizes: []int{2000, 3200, 3600, 4000, 4400}, Trials: 1, Iterations: 20, Seed: *seed}
		}
		rows, err := expt.Fig6(cfg)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatFig6(rows))
		if *chart {
			fmt.Println()
			fmt.Print(expt.Fig6Chart(rows))
		}
		h, c := expt.Fig6CSV(rows)
		return writeCSV("fig6", h, c)
	})

	run("react", func() error {
		res, err := expt.React(600)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatReact(res))
		if *chart {
			fmt.Println()
			fmt.Print(expt.ReactChart(res))
		}
		h, c := expt.ReactCSV(res)
		return writeCSV("react", h, c)
	})

	run("nile", func() error {
		events := 50000
		if *quick {
			events = 20000
		}
		res, err := expt.Nile(events, 8, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatNile(res))
		h, c := expt.NileCSV(res)
		return writeCSV("nile", h, c)
	})

	run("a1", func() error {
		sizes := []int{1000, 1500, 2000}
		trials := 3
		if *quick {
			sizes, trials = []int{1500}, 1
		}
		rows, err := expt.AblationForecast(sizes, trials, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatAblationForecast(rows))
		h, c := expt.ForecastAblationCSV(rows)
		return writeCSV("a1", h, c)
	})

	run("a3", func() error {
		rows, err := expt.AblationSelection(1500, nil, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatAblationSelection(rows))
		return nil
	})

	run("adapt", func() error {
		iters := 200
		if *quick {
			iters = 120
		}
		res, err := expt.Adaptation(1500, iters, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatAdaptation(res))
		return nil
	})

	run("fail", func() error {
		res, err := expt.Failure(1000, 120, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatFailure(res))
		return nil
	})

	run("a2", func() error {
		rows, err := expt.AblationForecasters(2000, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatAblationForecasters(rows))
		return nil
	})

	run("a4", func() error {
		seeds := []int64{101, 202, 303, 404, 505}
		if *quick {
			seeds = seeds[:2]
		}
		rows, err := expt.AblationRisk(1200, nil, seeds)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatAblationRisk(rows))
		h, c := expt.RiskAblationCSV(rows)
		return writeCSV("a4", h, c)
	})

	run("scale", func() error {
		sizes := [][2]int{{2, 4}, {4, 4}, {8, 4}, {8, 8}}
		if *quick {
			sizes = [][2]int{{2, 4}, {4, 4}}
		}
		rows, err := expt.Scalability(sizes, 2000, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatScalability(rows))
		return nil
	})

	run("selector-gap", func() error {
		var sizes [][2]int
		seeds := []int64{*seed, *seed + 12, *seed + 26}
		if *quick {
			sizes, seeds = [][2]int{{2, 3}, {2, 4}, {3, 4}}, seeds[:1]
		}
		rows, err := expt.SelectorGap(sizes, 2000, seeds)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatSelectorGap(rows))
		h, c := expt.SelectorGapCSV(rows)
		return writeCSV("selector-gap", h, c)
	})

	run("wait", func() error {
		res, err := expt.WaitOrRun(2000, nil, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatWaitOrRun(res))
		return nil
	})

	run("multi", func() error {
		res, err := expt.MultiApp(1200, 80, *seed)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatMultiApp(res))
		return nil
	})

	run("replay", func() error {
		spec := expt.ReplaySpec{Seed: *seed}
		if *quick {
			spec = expt.ReplaySpec{N: 600, Iterations: 10, Seed: *seed, WarmupSec: 120}
		}
		res, err := expt.Replay(spec)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatReplay(res))
		if !res.Deterministic || !res.MatchesLive {
			return fmt.Errorf("replay diverged: deterministic=%v matches-live=%v", res.Deterministic, res.MatchesLive)
		}
		return nil
	})

	run("audit", func() error {
		spec := expt.AuditSpec{Seed: *seed}
		if *quick {
			spec = expt.AuditSpec{N: 600, Iterations: 10, Seed: *seed, WarmupSec: 120, Runs: 2}
		}
		res, err := expt.AuditFigure(spec)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatAudit(res))
		h, c := expt.AuditCSV(res)
		return writeCSV("audit", h, c)
	})

	run("tenant-converge", func() error {
		cfg := expt.TenantConvergeConfig{
			Tenants: 6, N: 1200, Rounds: 12, Hysteresis: 0.05,
			Clusters: 2, PerCluster: 4, Seed: *seed,
		}
		if *quick {
			cfg.Rounds = 6
		}
		undamped, stale, seq, err := expt.TenantConvergeRegimes(cfg)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatTenantConverge(undamped, stale, seq))
		h, c := expt.TenantConvergeCSV(undamped, stale, seq)
		return writeCSV("tenant-converge", h, c)
	})
}
