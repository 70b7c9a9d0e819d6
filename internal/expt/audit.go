package expt

import (
	"fmt"
	"os"
	"strings"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/jacobi"
	"apples/internal/load"
	"apples/internal/mstore"
	"apples/internal/nws"
	"apples/internal/obs/audit"
	"apples/internal/partition"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// AuditSpec configures the forecast & decision quality figure: two
// scheduled scenarios (stationary and churning ambient load) audited
// live, plus an offline audit of a recorded measurement store.
type AuditSpec struct {
	N          int
	Iterations int
	Seed       int64
	WarmupSec  float64
	// Runs is how many scheduled executions each scenario performs;
	// every one contributes a predicted-vs-actual join.
	Runs int
	// GapSec is the observation window after each run: the world (and
	// its sensors) keeps running so the audit engine watches the
	// forecasters track — or fail to track — the ambient conditions
	// between decisions. Under churn the later runs are scheduled
	// mid-flapping, which is what separates the two scenarios' rows.
	GapSec float64
	// StoreDir is the measurement store audited offline. Empty records
	// a throwaway store from a fresh sensing run (still deterministic:
	// the recording is a pure function of the seed).
	StoreDir string
	// StoreSec is the sensing duration when recording a throwaway store.
	StoreSec float64
}

func (as *AuditSpec) setDefaults() {
	if as.N == 0 {
		as.N = 900
	}
	if as.Iterations == 0 {
		as.Iterations = 40
	}
	if as.WarmupSec == 0 {
		as.WarmupSec = 600
	}
	if as.Runs == 0 {
		as.Runs = 3
	}
	if as.GapSec == 0 {
		// Not a multiple of the 60 s flap cycle: successive checkpoints
		// land in different churn phases, so the static baseline gets
		// caught on flooded Alphas while the agent reschedules around
		// them.
		as.GapSec = 320
	}
	if as.StoreSec == 0 {
		as.StoreSec = 120
	}
}

// Churn parameters: once the scenario's first run starts, the Alpha
// farm's ambient load flaps between flooded (5 competing processes)
// and idle every flapPeriod seconds. A single step would be absorbed
// by the one-step forecasters within a sweep or two; the flapping keeps
// surprising them, which is exactly the sustained forecast-error shift
// the Page-Hinkley detector exists to flag.
const (
	auditFlapDelay  = 10.0
	auditFlapPeriod = 30.0
	auditFlapCount  = 100
	// auditFlapLoad must push a flooded Alpha past the testbed's slow
	// ambient-loaded workstations, or the static strip's barrier never
	// notices the storm (the old Sparc is the bottleneck up to ~6
	// competing processes per Alpha).
	auditFlapLoad = 12.0
)

// AuditScenarioRow is one audited scheduling scenario.
type AuditScenarioRow struct {
	Name  string
	Churn bool
	// AppLeS and Strip are summed measured (virtual) seconds across the
	// back-to-back runs; Advantage is Strip/AppLeS.
	AppLeS    float64
	Strip     float64
	Advantage float64
	// Decision-quality aggregates from the audit engine's joins.
	Joins       uint64
	Bias        float64
	MAE         float64
	MAPE        float64
	Calibration []uint64
	// Drift state after the scenario.
	Alarms   uint64
	Degraded []string
}

// AuditResult is the whole figure.
type AuditResult struct {
	Spec AuditSpec
	// Offline half: every sensor record in the store replayed through
	// fresh forecaster banks.
	StoreRecords int
	Series       []audit.SeriesReport
	// Live half.
	Scenarios []AuditScenarioRow
}

// RecordAuditStore runs sensing only — no scheduling — for duration
// seconds on a fresh seeded testbed, appending every sample to the
// measurement store at dir.
func RecordAuditStore(dir string, seed int64, duration float64) error {
	st, err := mstore.Open(dir)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: seed})
	svc := nws.NewService(eng, 10, nws.WithStore(st))
	svc.WatchTopology(tp)
	if err := eng.RunUntil(duration); err != nil {
		st.Close()
		return err
	}
	svc.Stop()
	if err := svc.StoreErr(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// AuditOffline replays the store at dir through nws.AuditStore into a
// fresh audit engine and returns the per-series forecast-quality
// reports. The store preserves append order, so the reports are a pure
// function of the directory's contents — auditable long after the
// process that sensed them exited.
func AuditOffline(dir string) ([]audit.SeriesReport, int, error) {
	st, err := mstore.Open(dir, mstore.ReadOnly())
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	aud := audit.New()
	n, err := nws.AuditStore(st, aud, nil)
	if err != nil {
		return nil, n, err
	}
	return aud.SeriesSnapshot(), n, nil
}

// scheduleFlaps installs the churn: the Alpha farm load toggling
// between flooded and idle on a fixed cadence from start onward.
func scheduleFlaps(eng *sim.Engine, tp *grid.Topology, start float64) {
	alphas := []string{"alpha1", "alpha2", "alpha3", "alpha4"}
	for i := 0; i < auditFlapCount; i++ {
		level := 0.0
		if i%2 == 0 {
			level = auditFlapLoad
		}
		lv := level
		eng.ScheduleAt(start+auditFlapDelay+float64(i)*auditFlapPeriod, func() {
			for _, name := range alphas {
				tp.Host(name).SetLoad(load.Constant(lv))
			}
		})
	}
}

// auditScenario executes one scenario: an audited AppLeS agent doing
// Runs back-to-back schedule→actuate rounds with live sensors feeding
// both the forecasts and the audit engine's residual stream, then a
// static strip baseline on a fresh same-seed world (with the identical
// churn schedule) for the advantage column.
func auditScenario(spec AuditSpec, name string, churn bool) (AuditScenarioRow, error) {
	row := AuditScenarioRow{Name: name, Churn: churn}

	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: spec.Seed})
	// A slightly more tolerant detector than the engine default: the
	// testbed's ambient AR1 bandwidth series are genuinely noisy, and
	// the stationary baseline must stay silent for the churn alarms to
	// mean anything.
	aud := audit.New(audit.WithPageHinkley(0.05, 10, audit.DefaultPHMinSamples))
	svc := nws.NewService(eng, 10, nws.WithResiduals(aud))
	svc.WatchTopology(tp)
	if err := eng.RunUntil(spec.WarmupSec); err != nil {
		return row, err
	}
	if churn {
		scheduleFlaps(eng, tp, spec.WarmupSec)
	}

	tpl := hat.Jacobi2D(spec.N, spec.Iterations)
	cfg := jacobi.Config{
		Iterations:          spec.Iterations,
		FlopPerPoint:        tpl.Tasks[0].FlopPerUnit,
		BytesPerPoint:       tpl.Tasks[0].BytesPerUnit,
		BorderBytesPerPoint: tpl.Comms[0].BytesPerUnit,
	}
	agent, err := core.NewAgent(tp, tpl, &userspec.Spec{Decomposition: "strip"},
		core.NWSInformation(svc, tp),
		core.WithAudit(aud), core.WithAuditTenant("apples"))
	if err != nil {
		return row, err
	}
	for r := 0; r < spec.Runs; r++ {
		_, measured, err := agent.Run(spec.N, core.ActuatorFromJacobi(tp, cfg))
		if err != nil {
			return row, fmt.Errorf("audit %s run %d: %w", name, r, err)
		}
		row.AppLeS += measured
		// Observe until the next checkpoint; the sensors keep scoring
		// the forecasters against the (possibly flapping) world.
		if err := eng.RunUntil(spec.WarmupSec + float64(r+1)*spec.GapSec); err != nil {
			return row, err
		}
	}
	svc.Stop()

	snap := aud.Snapshot()
	row.Joins = snap.Joined
	row.Alarms = snap.Alarms
	row.Degraded = snap.Degraded
	row.Calibration = snap.Calibration
	var joins float64
	for _, g := range snap.Groups {
		w := float64(g.Joins)
		row.Bias += g.Bias * w
		row.MAE += g.MAE * w
		row.MAPE += g.MAPE * w
		joins += w
	}
	if joins > 0 {
		row.Bias /= joins
		row.MAE /= joins
		row.MAPE /= joins
	}

	// Strip baseline: fresh same-seed world, same churn, no agent.
	eng2 := sim.NewEngine()
	eng2.SetEventLimit(200_000_000)
	tp2 := grid.SDSCPCL(eng2, grid.TestbedOptions{Seed: spec.Seed})
	if err := eng2.RunUntil(spec.WarmupSec); err != nil {
		return row, err
	}
	if churn {
		scheduleFlaps(eng2, tp2, spec.WarmupSec)
	}
	hosts, weights := speedWeights(tp2, false)
	p, err := partition.WeightedStrip(spec.N, hosts, weights, cfg.BorderBytesPerPoint)
	if err != nil {
		return row, err
	}
	for r := 0; r < spec.Runs; r++ {
		res, err := jacobi.Run(tp2, p, cfg)
		if err != nil {
			return row, fmt.Errorf("audit %s strip run %d: %w", name, r, err)
		}
		row.Strip += res.Time
		// Advance to the same checkpoints as the audited world so both
		// schedulers execute each run under identical conditions.
		if err := eng2.RunUntil(spec.WarmupSec + float64(r+1)*spec.GapSec); err != nil {
			return row, err
		}
	}
	if row.AppLeS > 0 {
		row.Advantage = row.Strip / row.AppLeS
	}
	return row, nil
}

// AuditFigure runs the whole closing-the-loop experiment: the offline
// audit of the (committed or freshly recorded) store, then the
// stationary and churn scenarios. Everything in the result is derived
// from virtual time and seeded state, so the figure is bit-stable
// across runs.
func AuditFigure(spec AuditSpec) (*AuditResult, error) {
	spec.setDefaults()
	res := &AuditResult{Spec: spec}

	dir := spec.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "apples-audit-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		if err := RecordAuditStore(tmp, spec.Seed, spec.StoreSec); err != nil {
			return nil, fmt.Errorf("expt: audit record: %w", err)
		}
		dir = tmp
	}
	series, n, err := AuditOffline(dir)
	if err != nil {
		return nil, fmt.Errorf("expt: audit store: %w", err)
	}
	res.Series = series
	res.StoreRecords = n

	for _, sc := range []struct {
		name  string
		churn bool
	}{{"stationary", false}, {"churn", true}} {
		row, err := auditScenario(spec, sc.name, sc.churn)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, row)
	}
	return res, nil
}

// bestForecaster picks the report's highest-skill forecaster,
// tie-breaking on name so the figure is deterministic.
func bestForecaster(r audit.SeriesReport) (string, float64) {
	name, skill := "", 0.0
	for _, f := range r.Forecasters {
		if name == "" || f.Skill > skill || (f.Skill == skill && f.Name < name) {
			name, skill = f.Name, f.Skill
		}
	}
	return name, skill
}

// AuditCSV renders the scenario rows for -csv.
func AuditCSV(r *AuditResult) ([]string, [][]string) {
	header := []string{"scenario", "apples_s", "strip_s", "advantage", "joins", "bias_s", "mae_s", "mape", "drift_alarms", "degraded"}
	var cells [][]string
	for _, row := range r.Scenarios {
		cells = append(cells, []string{
			row.Name,
			fmt.Sprintf("%.4f", row.AppLeS),
			fmt.Sprintf("%.4f", row.Strip),
			fmt.Sprintf("%.4f", row.Advantage),
			fmt.Sprintf("%d", row.Joins),
			fmt.Sprintf("%.4f", row.Bias),
			fmt.Sprintf("%.4f", row.MAE),
			fmt.Sprintf("%.4f", row.MAPE),
			fmt.Sprintf("%d", row.Alarms),
			strings.Join(row.Degraded, ";"),
		})
	}
	return header, cells
}

// FormatAudit renders the figure.
func FormatAudit(r *AuditResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Audit — forecast & decision quality (n=%d, %d runs/scenario, seed=%d)\n",
		r.Spec.N, r.Spec.Runs, r.Spec.Seed)

	fmt.Fprintf(&sb, "  offline store audit: %d records → %d series\n", r.StoreRecords, len(r.Series))
	sb.WriteString("    kind       series            samples  naiveMAE  best forecaster      skill\n")
	for _, s := range r.Series {
		name, skill := bestForecaster(s)
		fmt.Fprintf(&sb, "    %-9s  %-16s  %7d  %8.4f  %-16s  %+6.3f\n",
			s.Kind, s.Series, s.Samples, s.NaiveMAE, name, skill)
	}

	sb.WriteString("  scenario     apples(s)  strip(s)  advantage  joins  bias(s)    mae(s)   mape  alarms  degraded\n")
	for _, row := range r.Scenarios {
		deg := "-"
		if len(row.Degraded) > 0 {
			deg = strings.Join(row.Degraded, ",")
		}
		fmt.Fprintf(&sb, "  %-11s  %9.2f  %8.2f  %8.2fx  %5d  %+8.2f  %8.2f  %5.3f  %6d  %s\n",
			row.Name, row.AppLeS, row.Strip, row.Advantage, row.Joins,
			row.Bias, row.MAE, row.MAPE, row.Alarms, deg)
	}
	for _, row := range r.Scenarios {
		fmt.Fprintf(&sb, "  calibration[%s]: edges %v counts %v\n",
			row.Name, audit.CalibrationBuckets, row.Calibration)
	}
	return sb.String()
}
