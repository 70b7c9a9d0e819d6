package nws

import (
	"fmt"

	"apples/internal/mstore"
)

// ResidualSink receives forecaster-quality observations from the
// sensing sweep, one call per sample. A series is resolved once, on its
// first sample: ResidualSeries names it (kind is the mstore kind name,
// "cpu" or "bandwidth") and its bank's forecasters in bank order, and
// returns a handle. Every sample then arrives as one ObserveResiduals
// with that handle: predicted[i] is forecaster i's standing one-step
// prediction of actual, scored only where ready[i] is true, and
// selected is the position of the forecaster the bank had chosen
// before the sample (-1 when none was ready). The predictions are the
// ones the bank scores as it absorbs the sample, and the slices are
// its scratch, valid only during the call. Implemented by
// audit.Engine; implementations must be safe for concurrent calls when
// sensing runs on multiple engines.
type ResidualSink interface {
	ResidualSeries(kind, series string, forecasters []string) int
	ObserveResiduals(series int, actual float64, predicted []float64, ready []bool, selected int)
}

// WithResiduals streams every sensor sample's forecaster residuals
// into sink as the bank absorbs the sample — each ready forecaster's
// standing one-step prediction is scored against the value that
// actually arrived. nil leaves auditing off; the sweep then pays only
// a nil check, and an audited sample allocates nothing once its series
// has been resolved.
func WithResiduals(sink ResidualSink) ServiceOption {
	return func(s *Service) { s.residuals = sink }
}

// residualFeed streams one series' samples into a sink, resolving the
// series on its first sample.
type residualFeed struct {
	sink   ResidualSink
	kind   mstore.Kind
	name   string
	handle int
	bound  bool
}

// update absorbs v into bank and reports every forecaster's standing
// prediction of v to the sink, with the bank's selection from before
// the update.
func (f *residualFeed) update(bank *Bank, v float64) {
	if !f.bound {
		f.handle, f.bound = f.sink.ResidualSeries(f.kind.String(), f.name, bank.names()), true
	}
	selected := bank.best()
	predicted, ready := bank.updateScored(v)
	f.sink.ObserveResiduals(f.handle, v, predicted, ready, selected)
}

// AuditStore replays every sensor record in st through fresh forecaster
// banks (mk, NewBank by default) into sink — the offline counterpart of
// WithResiduals. The store preserves append order and forecasters are
// deterministic functions of their input series, so auditing a
// directory reproduces exactly the residual stream the live sweep would
// have emitted, long after the process that sensed it exited. Records
// of non-sensor kinds (e.g. load-trace steps sharing the store) are
// skipped. Returns how many sensor records were audited.
func AuditStore(st *mstore.Store, sink ResidualSink, mk func() *Bank) (int, error) {
	if mk == nil {
		mk = func() *Bank { return NewBank() }
	}
	type seriesKey struct {
		kind   mstore.Kind
		series string
	}
	type series struct {
		bank *Bank
		feed residualFeed
	}
	banks := make(map[seriesKey]*series)
	audited := 0
	for r, err := range st.Records() {
		if err != nil {
			return audited, fmt.Errorf("nws: audit store: %w", err)
		}
		if r.Kind != mstore.KindCPU && r.Kind != mstore.KindBandwidth {
			continue
		}
		key := seriesKey{r.Kind, r.Series}
		sr := banks[key]
		if sr == nil {
			sr = &series{bank: mk(), feed: residualFeed{sink: sink, kind: r.Kind, name: r.Series}}
			banks[key] = sr
		}
		sr.feed.update(sr.bank, r.Value)
		audited++
	}
	return audited, nil
}
