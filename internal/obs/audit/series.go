package audit

import (
	"apples/internal/obs"
)

// seriesKey names one measurement series.
type seriesKey struct{ kind, name string }

// seriesAgg scores one measurement series (kind/name): the naive
// last-value baseline every forecaster must beat, per-forecaster
// residual sums, and the drift detector fed by the bank's currently
// selected forecaster.
type seriesAgg struct {
	kind, name string

	haveLast bool
	last     float64

	naiveN      int
	naiveAbsErr float64

	fcs []*fcAgg // one per forecaster name, in first-seen order

	ph       *PageHinkley
	gauges   bool // per-series skill gauges installed (under the cap)
	degraded bool
}

// fcAgg accumulates one forecaster's residuals on one series. An
// aggregate with n == 0 has never scored a prediction and is not
// reported.
type fcAgg struct {
	name     string
	n        int
	absErr   float64
	sqErr    float64
	selected int // samples where the bank had selected this forecaster
	gauge    *obs.Gauge
}

// boundSeries is a series resolved by ResidualSeries: its aggregate and
// each forecaster's, by bank position (forecasters sharing a name share
// one aggregate).
type boundSeries struct {
	s   *seriesAgg
	fcs []*fcAgg
}

// ResidualSeries resolves a series and its bank's forecasters, named in
// bank order, once, and returns the handle ObserveResiduals takes for
// every sample of it. Resolving the same series again returns a new
// handle onto the same aggregates.
func (e *Engine) ResidualSeries(kind, series string, forecasters []string) int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.seriesLocked(kind, series)
	b := boundSeries{s: s, fcs: make([]*fcAgg, len(forecasters))}
	for i, name := range forecasters {
		b.fcs[i] = s.forecasterLocked(name)
	}
	e.bound = append(e.bound, b)
	return len(e.bound) - 1
}

// ObserveResiduals ingests one sensor sample of a series resolved by
// ResidualSeries: every ready forecaster's standing one-step prediction
// (predicted[i] for bank position i, scored where ready[i]) is scored
// against it, the forecaster at position selected (-1: none) feeds
// the series' drift detector, and then the naive last-value baseline
// is scored and carried forward. It is ObserveResidual for each ready
// forecaster in bank order followed by ObserveSample, under one lock
// and with no lookup by name.
func (e *Engine) ObserveResiduals(series int, actual float64, predicted []float64, ready []bool, selected int) {
	if e == nil {
		return
	}
	var drifts int
	var driftBy string
	e.mu.Lock()
	b := e.bound[series]
	var sel *fcAgg
	if selected >= 0 {
		sel = b.fcs[selected]
	}
	for i, f := range b.fcs {
		if ready[i] && e.residualLocked(b.s, f, predicted[i], actual, f == sel) {
			drifts++
			driftBy = f.name
		}
	}
	b.s.sampleLocked(actual)
	e.mu.Unlock()
	for ; drifts > 0; drifts-- {
		e.emitDrift(b.s, driftBy)
	}
}

// ObserveSample ingests one sensor sample for a series: it scores the
// naive last-value baseline against the sample and then carries the
// sample forward as the next naive prediction. Call it once per sweep,
// after the ObserveResidual calls for the same sample.
func (e *Engine) ObserveSample(kind, series string, actual float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.seriesLocked(kind, series).sampleLocked(actual)
	e.mu.Unlock()
}

// ObserveResidual scores one forecaster's standing one-step prediction
// against the sample that just arrived. selected flags the bank's
// currently chosen forecaster; its relative error stream drives the
// series' drift detector.
func (e *Engine) ObserveResidual(kind, series, forecaster string, predicted, actual float64, selected bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	s := e.seriesLocked(kind, series)
	drift := e.residualLocked(s, s.forecasterLocked(forecaster), predicted, actual, selected)
	e.mu.Unlock()
	if drift {
		e.emitDrift(s, forecaster)
	}
}

// sampleLocked scores the naive baseline against actual and carries it
// forward.
func (s *seriesAgg) sampleLocked(actual float64) {
	if s.haveLast {
		s.naiveN++
		s.naiveAbsErr += abs(s.last - actual)
	}
	s.haveLast = true
	s.last = actual
}

// residualLocked scores forecaster f's prediction on series s against
// actual, installs f's skill gauge on its first score (while s is under
// the gauge cap) and updates it, and, for the selected forecaster,
// feeds the drift detector. It reports whether the detector alarmed;
// the caller emits the alarm after unlocking.
func (e *Engine) residualLocked(s *seriesAgg, f *fcAgg, predicted, actual float64, selected bool) bool {
	if f.n == 0 && s.gauges {
		f.gauge = e.reg.Gauge(obs.NameWithLabels(obs.MetricForecastSkill,
			"kind", s.kind, "series", s.name, "forecaster", f.name))
	}
	err := predicted - actual
	f.n++
	f.absErr += abs(err)
	f.sqErr += err * err
	var drift bool
	if selected {
		f.selected++
		denom := abs(actual)
		if denom > 0 && s.ph.Update(clipRel(abs(err)/denom)) {
			drift = true
			s.degraded = true
			e.alarms++
			e.degraded["series/"+s.kind+"/"+s.name] = "forecast drift (selected " + f.name + ")"
		}
	}
	if f.gauge != nil && s.naiveN > 0 {
		f.gauge.Set(skillScore(f.absErr/float64(f.n), s.naiveAbsErr/float64(s.naiveN)))
	}
	return drift
}

// emitDrift surfaces one forecast-drift alarm on s through the metrics
// and the tracer.
func (e *Engine) emitDrift(s *seriesAgg, forecaster string) {
	if e.metAlarms != nil {
		e.metAlarms.Inc()
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Type: obs.EvAudit, Verdict: "drift",
			Reason: "series/" + s.kind + "/" + s.name, Tenant: forecaster})
	}
}

// seriesLocked returns the aggregate for kind/series, creating it (and
// its skill gauges, while under the cardinality cap) on first sight.
func (e *Engine) seriesLocked(kind, series string) *seriesAgg {
	key := seriesKey{kind, series}
	s := e.series[key]
	if s == nil {
		s = &seriesAgg{
			kind: kind,
			name: series,
			ph:   newPageHinkley(e.phDelta, e.phLambda, e.phMin),
		}
		s.gauges = e.reg != nil && len(e.series) < e.skillGaugeLimit
		e.series[key] = s
	}
	return s
}

// forecasterLocked returns s's aggregate for the named forecaster,
// creating it on first sight.
func (s *seriesAgg) forecasterLocked(name string) *fcAgg {
	for _, f := range s.fcs {
		if f.name == name {
			return f
		}
	}
	f := &fcAgg{name: name}
	s.fcs = append(s.fcs, f)
	return f
}

// skillScore is 1 - MAE_forecaster/MAE_naive: 1 perfect, 0 no better
// than carrying the last value forward, negative worse. A zero-MAE
// naive baseline (constant series) makes any non-zero forecaster error
// maximally unskilled.
func skillScore(maeForecaster, maeNaive float64) float64 {
	if maeNaive == 0 {
		if maeForecaster == 0 {
			return 1
		}
		return -1
	}
	return 1 - maeForecaster/maeNaive
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
