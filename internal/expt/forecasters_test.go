package expt

import (
	"reflect"
	"strings"
	"testing"
)

func TestAblationForecastersNoSingleWinner(t *testing.T) {
	rows, err := AblationForecasters(2000, 71)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("classes %d, want 6", len(rows))
	}
	winners := map[string]bool{}
	for _, r := range rows {
		if r.BestMSE > r.WorstMSE {
			t.Fatalf("class %s: best %v > worst %v", r.Class, r.BestMSE, r.WorstMSE)
		}
		winners[r.BestName] = true
		// The bank's online selection must land near the hindsight best:
		// within 3x of its MSE (it pays for the adaptation period), and
		// always at least as good as the worst constituent.
		if r.BankMSE > r.WorstMSE && r.WorstMSE > 0 {
			t.Errorf("class %s: bank MSE %v worse than worst constituent %v",
				r.Class, r.BankMSE, r.WorstMSE)
		}
		if r.BestMSE > 0 && r.BankMSE > 3*r.BestMSE+1e-9 {
			t.Errorf("class %s: bank MSE %v far from hindsight best %v (%s)",
				r.Class, r.BankMSE, r.BestMSE, r.BestName)
		}
	}
	// The whole point: different classes are won by different forecasters,
	// and the tracking forecaster that wins persistent load must not win
	// the spiky class (where it pays twice per spike).
	if len(winners) < 2 {
		t.Errorf("only %d distinct winning forecasters across classes: %v", len(winners), winners)
	}
	for _, r := range rows {
		if r.Class == "spiky" && r.BestName == "last" {
			t.Error("last-value won the spiky class; the bank's raison d'etre disappears")
		}
	}
	out := FormatAblationForecasters(rows)
	if !strings.Contains(out, "Ablation A2") {
		t.Fatalf("format: %q", out)
	}
}

// TestAblationForecastersReproducible pins ablation A2 to its inputs:
// classes where several forecasters tie on MSE (the constant load makes
// most of them exact) must name the same best and worst forecaster on
// every run, whatever order the bank's MSE map iterates in.
func TestAblationForecastersReproducible(t *testing.T) {
	want, err := AblationForecasters(2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 10; run++ {
		got, err := AblationForecasters(2000, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", run,
				FormatAblationForecasters(want), FormatAblationForecasters(got))
		}
	}
}
