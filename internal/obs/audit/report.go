package audit

import (
	"math"
	"sort"
)

// GroupReport is one (tenant, selector, host-class) cell of the
// decision audit.
type GroupReport struct {
	Tenant    string `json:"tenant"`
	Selector  string `json:"selector"`
	HostClass string `json:"host_class"`
	Joins     int    `json:"joins"`
	// Bias is the mean signed error predicted-actual in seconds:
	// positive means the scheduler promised more time than runs took.
	Bias float64 `json:"bias_seconds"`
	MAE  float64 `json:"mae_seconds"`
	// MAPE is the mean |error|/actual over joins with actual > 0.
	MAPE float64 `json:"mape"`
	// Calibration counts predicted/actual ratios per CalibrationBuckets
	// edge (last entry: overflow).
	Calibration []uint64 `json:"calibration"`
}

// Snapshot is the decision-audit state at one instant, with every
// slice sorted so equal engine states serialize to equal bytes.
type Snapshot struct {
	Joined   uint64 `json:"joined"`
	Orphaned uint64 `json:"orphaned"`
	Expired  uint64 `json:"expired"`
	Pending  int    `json:"pending"`
	Alarms   uint64 `json:"drift_alarms"`

	Degraded []string `json:"degraded,omitempty"`

	// CalibrationEdges echoes CalibrationBuckets so a report is
	// self-describing; Calibration is the engine-wide histogram.
	CalibrationEdges []float64 `json:"calibration_edges"`
	Calibration      []uint64  `json:"calibration"`

	Groups []GroupReport `json:"groups"`
}

// Snapshot captures the decision-audit state. Safe to call while
// ingestion continues; the result is a consistent point-in-time copy.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{CalibrationEdges: CalibrationBuckets}
	}
	e.mu.Lock()
	snap := Snapshot{
		Joined:           e.joined,
		Orphaned:         e.orphaned,
		Expired:          e.expired,
		Pending:          len(e.pending),
		Alarms:           e.alarms,
		CalibrationEdges: CalibrationBuckets,
		Calibration:      append([]uint64(nil), e.calAll...),
		Groups:           make([]GroupReport, 0, len(e.groups)),
	}
	for entity := range e.degraded {
		snap.Degraded = append(snap.Degraded, entity)
	}
	for labels, g := range e.groups {
		r := GroupReport{
			Tenant:      labels.Tenant,
			Selector:    labels.Selector,
			HostClass:   labels.HostClass,
			Joins:       g.n,
			Calibration: append([]uint64(nil), g.cal...),
		}
		if g.n > 0 {
			r.Bias = g.sumErr / float64(g.n)
			r.MAE = g.sumAbsErr / float64(g.n)
		}
		if g.nAPE > 0 {
			r.MAPE = g.sumAPE / float64(g.nAPE)
		}
		snap.Groups = append(snap.Groups, r)
	}
	e.mu.Unlock()

	sort.Strings(snap.Degraded)
	sort.Slice(snap.Groups, func(i, j int) bool {
		a, b := snap.Groups[i], snap.Groups[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Selector != b.Selector {
			return a.Selector < b.Selector
		}
		return a.HostClass < b.HostClass
	})
	return snap
}

// ForecasterReport scores one forecaster on one series.
type ForecasterReport struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	MAE     float64 `json:"mae"`
	RMSE    float64 `json:"rmse"`
	// Skill is 1 - MAE/MAE_naive against the series' last-value
	// baseline.
	Skill float64 `json:"skill"`
	// Selected counts samples on which the bank had chosen this
	// forecaster.
	Selected int `json:"selected"`
}

// SeriesReport is the forecast audit of one measurement series.
type SeriesReport struct {
	Kind     string  `json:"kind"`
	Series   string  `json:"series"`
	Samples  int     `json:"samples"`
	NaiveMAE float64 `json:"naive_mae"`
	Degraded bool    `json:"degraded,omitempty"`

	Forecasters []ForecasterReport `json:"forecasters"`
}

// SeriesSnapshot captures every series' forecast audit, sorted by
// kind then series name (forecasters sorted by name) for byte-stable
// serialization. Series beyond the skill-gauge cap appear here in
// full; only their gauges were skipped.
func (e *Engine) SeriesSnapshot() []SeriesReport {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]SeriesReport, 0, len(e.series))
	for _, s := range e.series {
		r := SeriesReport{
			Kind:        s.kind,
			Series:      s.name,
			Samples:     s.naiveN,
			Degraded:    s.degraded,
			Forecasters: make([]ForecasterReport, 0, len(s.fcs)),
		}
		naiveMAE := 0.0
		if s.naiveN > 0 {
			naiveMAE = s.naiveAbsErr / float64(s.naiveN)
			r.NaiveMAE = naiveMAE
		}
		for _, f := range s.fcs {
			if f.n == 0 {
				continue
			}
			fr := ForecasterReport{Name: f.name, Samples: f.n, Selected: f.selected,
				MAE: f.absErr / float64(f.n), RMSE: math.Sqrt(f.sqErr / float64(f.n))}
			if s.naiveN > 0 {
				fr.Skill = skillScore(fr.MAE, naiveMAE)
			}
			r.Forecasters = append(r.Forecasters, fr)
		}
		out = append(out, r)
	}
	e.mu.Unlock()

	for i := range out {
		fs := out[i].Forecasters
		sort.Slice(fs, func(a, b int) bool { return fs[a].Name < fs[b].Name })
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Series < out[j].Series
	})
	return out
}
