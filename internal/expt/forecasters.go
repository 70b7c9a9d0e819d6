package expt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"apples/internal/load"
	"apples/internal/nws"
	"apples/internal/sim"
)

// ForecasterClassRow is one load-generator class of ablation A2: which
// forecaster the bank selects for it, and how the selection compares with
// the single best and worst constituents.
type ForecasterClassRow struct {
	Class     string
	Selected  string
	BankMSE   float64 // MSE of the bank's dynamic selection (scored online)
	BestMSE   float64 // MSE of the single best forecaster in hindsight
	BestName  string
	WorstMSE  float64
	WorstName string
}

// AblationForecasters runs the full predictor bank over each load
// generator class and reports per-class winners — the paper's §3.6 point
// made concrete: no single predictor dominates, so dynamic selection is
// what makes the NWS robust.
func AblationForecasters(samples int, seed int64) ([]ForecasterClassRow, error) {
	if samples == 0 {
		samples = 2000
	}
	rng := sim.NewRand(seed)
	classes := []struct {
		name string
		mk   func() load.Source
	}{
		{"ar1-persistent", func() load.Source { return load.NewAR1(rng.Fork(), 1, 1.0, 0.95, 0.2) }},
		{"ar1-noisy", func() load.Source { return load.NewAR1(rng.Fork(), 1, 1.0, 0.5, 0.6) }},
		{"on-off", func() load.Source { return load.NewOnOff(rng.Fork(), 30, 30, 2) }},
		{"spiky", func() load.Source { return load.NewSpikes(rng.Fork(), 40, 2, 0.5, 8) }},
		{"periodic", func() load.Source { return load.NewPeriodic(1, 120, 1, 0.8, 0) }},
		{"constant", func() load.Source { return load.Constant(1.5) }},
	}

	var rows []ForecasterClassRow
	for _, cls := range classes {
		src := cls.mk()
		bank := nws.NewBank()
		// Score the bank's own selection online: before each update, ask
		// the bank for its forecast and compare with the next value.
		t0 := 0.0
		bankSq, scored := 0.0, 0
		for i := 0; i < samples; i++ {
			v, until := src.Sample(t0)
			if fc, _, ok := bank.Forecast(); ok {
				bankSq += (fc - v) * (fc - v)
				scored++
			}
			bank.Update(v)
			t0 = until
		}
		mse := bank.MSE()
		if len(mse) == 0 {
			return nil, fmt.Errorf("ablation A2: class %s produced no scored forecasters", cls.name)
		}
		// Walk the forecasters in name order so equal-MSE ties resolve to
		// the first name, not to map iteration order.
		names := make([]string, 0, len(mse))
		for name := range mse {
			names = append(names, name)
		}
		sort.Strings(names)
		row := ForecasterClassRow{Class: cls.name, BestMSE: math.Inf(1), WorstMSE: -1}
		for _, name := range names {
			m := mse[name]
			if m < row.BestMSE {
				row.BestMSE, row.BestName = m, name
			}
			if m > row.WorstMSE {
				row.WorstMSE, row.WorstName = m, name
			}
		}
		_, row.Selected, _ = bank.Forecast()
		if scored > 0 {
			row.BankMSE = bankSq / float64(scored)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Class < rows[j].Class })
	return rows, nil
}

// FormatAblationForecasters renders ablation A2.
func FormatAblationForecasters(rows []ForecasterClassRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation A2 — forecaster bank per load class (MSE)\n")
	sb.WriteString("  class            selected      bank MSE  best (hindsight)        worst\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-15s  %-12s  %8.4f  %8.4f %-11s  %8.4f %s\n",
			r.Class, r.Selected, r.BankMSE, r.BestMSE, r.BestName, r.WorstMSE, r.WorstName)
	}
	return sb.String()
}
