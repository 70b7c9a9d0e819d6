package nws

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"apples/internal/grid"
	"apples/internal/mstore"
	"apples/internal/obs"
	"apples/internal/obs/audit"
	"apples/internal/sim"
)

// auditEvent is one scored residual, or with Sample set the sample
// that closes a ResidualSink call.
type auditEvent struct {
	Sample                   bool
	Kind, Series, Forecaster string
	Predicted, Actual        float64
	Selected                 bool
}

// recSink records each ObserveResiduals call as one event per ready
// forecaster, in bank order, followed by one sample event.
type recSink struct {
	series []recSeries
	events []auditEvent
}

type recSeries struct {
	kind, name  string
	forecasters []string
}

func (r *recSink) ResidualSeries(kind, series string, forecasters []string) int {
	r.series = append(r.series, recSeries{kind, series, forecasters})
	return len(r.series) - 1
}

func (r *recSink) ObserveResiduals(series int, actual float64, predicted []float64, ready []bool, selected int) {
	s := r.series[series]
	for i, fc := range s.forecasters {
		if ready[i] {
			r.events = append(r.events, auditEvent{Kind: s.kind, Series: s.name, Forecaster: fc,
				Predicted: predicted[i], Actual: actual, Selected: i == selected})
		}
	}
	r.events = append(r.events, auditEvent{Sample: true, Kind: s.kind, Series: s.name, Actual: actual})
}

func TestWithResidualsStreams(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 11})
	rec := &recSink{}
	svc := NewService(eng, 10, WithResiduals(rec))
	svc.WatchHost(tp.Host("alpha1"))
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	svc.Stop()

	samples, residuals, selected := 0, 0, 0
	for _, ev := range rec.events {
		if ev.Sample {
			samples++
			if ev.Kind != "cpu" || ev.Series != "alpha1" {
				t.Fatalf("sample on %s/%s, want cpu/alpha1", ev.Kind, ev.Series)
			}
			continue
		}
		residuals++
		if ev.Selected {
			selected++
		}
	}
	if samples != 10 {
		t.Fatalf("samples = %d, want 10", samples)
	}
	// Sweep 1 has no ready forecaster; from sweep 2 on, each sweep
	// scores at least the last-value predictor and flags exactly one
	// selected forecaster.
	if residuals == 0 {
		t.Fatal("no residuals streamed")
	}
	if selected != 9 {
		t.Fatalf("selected residuals = %d, want one per post-warmup sweep (9)", selected)
	}
}

// The offline store audit must reproduce exactly the residual stream
// the live sweep emitted: same banks, same samples in append order.
func TestAuditStoreMatchesLive(t *testing.T) {
	dir := t.TempDir()
	st, err := mstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 7})
	live := &recSink{}
	svc := NewService(eng, 10, WithStore(st), WithResiduals(live))
	svc.WatchTopology(tp)
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	if err := svc.StoreErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := mstore.Open(dir, mstore.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	offline := &recSink{}
	audited, err := AuditStore(ro, offline, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := 20 * (len(tp.Hosts()) + len(tp.Links()))
	if audited != wantRecords {
		t.Fatalf("audited %d records, want %d", audited, wantRecords)
	}
	if len(offline.events) != len(live.events) {
		t.Fatalf("offline stream %d events, live %d", len(offline.events), len(live.events))
	}
	if !reflect.DeepEqual(offline.events, live.events) {
		for i := range live.events {
			if offline.events[i] != live.events[i] {
				t.Fatalf("streams diverge at event %d:\nlive    %+v\noffline %+v",
					i, live.events[i], offline.events[i])
			}
		}
	}
}

// plainForecaster hides a forecaster's fused score+absorb step, so a
// bank runs it through the generic Ready/Forecast/Update path.
type plainForecaster struct{ Forecaster }

// updateScored reports, by bank position, exactly what each forecaster
// would have said before the update, on the fused and the generic path
// alike, and leaves the bank as Update does.
func TestBankUpdateScored(t *testing.T) {
	mk := func() *Bank {
		fcs := DefaultForecasters()
		fcs[1] = plainForecaster{fcs[1]}
		return NewBank(fcs...)
	}
	scored, plain := mk(), mk()
	for i := 0; i < 60; i++ {
		v := 0.5 + 0.4*math.Sin(float64(i)*0.7)
		wantPred := make([]float64, len(scored.fcs))
		wantReady := make([]bool, len(scored.fcs))
		for j, f := range scored.fcs {
			if wantReady[j] = f.Ready(); wantReady[j] {
				wantPred[j] = f.Forecast()
			}
		}
		pred, ready := scored.updateScored(v)
		plain.Update(v)
		for j := range pred {
			if ready[j] != wantReady[j] || math.Float64bits(pred[j]) != math.Float64bits(wantPred[j]) {
				t.Fatalf("sample %d, %s: scored (%v, %v), want (%v, %v)",
					i, scored.fcs[j].Name(), pred[j], ready[j], wantPred[j], wantReady[j])
			}
		}
	}
	if !reflect.DeepEqual(scored.MSE(), plain.MSE()) || scored.best() != plain.best() {
		t.Fatal("updateScored left the bank in a different state than Update")
	}
}

// legacyObserveResiduals is the per-forecaster residual path the
// one-call sink replaced, kept as the parity oracle: the selection by
// name from Forecast, then each ready forecaster's Ready/Forecast
// before the update, one ObserveResidual each and one ObserveSample.
func legacyObserveResiduals(aud *audit.Engine, kind mstore.Kind, name string, b *Bank, v float64) {
	kindName := kind.String()
	if _, by, ok := b.Forecast(); ok {
		for _, f := range b.fcs {
			if f.Ready() {
				aud.ObserveResidual(kindName, name, f.Name(), f.Forecast(), v, f.Name() == by)
			}
		}
	}
	aud.ObserveSample(kindName, name, v)
}

// The one-call residual sink must leave the audit in exactly the state
// the per-forecaster path left it in: a loaded SDSC/PCL sensing run,
// audited live, against the same samples replayed from its store
// through the legacy path, compared on Snapshot, SeriesSnapshot, the
// drift state and the skill gauges.
func TestResidualSinkMatchesLegacy(t *testing.T) {
	dir := t.TempDir()
	st, err := mstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 5})
	liveReg, oracleReg := obs.NewMetrics(), obs.NewMetrics()
	live := audit.New(audit.WithMetrics(liveReg), audit.WithPageHinkley(0.005, 0.5, 10))
	svc := NewService(eng, 10, WithStore(st), WithResiduals(live))
	svc.WatchTopology(tp)
	if err := eng.RunUntil(3000); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	if err := svc.StoreErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := mstore.Open(dir, mstore.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	oracle := audit.New(audit.WithMetrics(oracleReg), audit.WithPageHinkley(0.005, 0.5, 10))
	banks := map[string]*Bank{}
	for r, err := range ro.Records() {
		if err != nil {
			t.Fatal(err)
		}
		key := r.Kind.String() + "/" + r.Series
		if banks[key] == nil {
			banks[key] = NewBank()
		}
		legacyObserveResiduals(oracle, r.Kind, r.Series, banks[key], r.Value)
		banks[key].Update(r.Value)
	}

	if got, want := fmt.Sprintf("%+v", live.Snapshot()), fmt.Sprintf("%+v", oracle.Snapshot()); got != want {
		t.Fatalf("Snapshot differs:\nsink   %s\nlegacy %s", got, want)
	}
	got, want := live.SeriesSnapshot(), oracle.SeriesSnapshot()
	if len(got) != len(tp.Hosts())+len(tp.Links()) {
		t.Fatalf("%d series audited, want %d", len(got), len(tp.Hosts())+len(tp.Links()))
	}
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Fatalf("SeriesSnapshot differs:\nsink   %s\nlegacy %s", g, w)
	}
	if live.Snapshot().Alarms == 0 {
		t.Fatal("no forecast drift alarm: the run does not reach the drift path")
	}
	var gotMet, wantMet strings.Builder
	liveReg.WriteTo(&gotMet)
	oracleReg.WriteTo(&wantMet)
	if gotMet.String() != wantMet.String() {
		t.Fatalf("skill gauges differ:\nsink\n%s\nlegacy\n%s", gotMet.String(), wantMet.String())
	}
}

// TestResidualSampleAllocs gates the audited sweep's hot path: once a
// series has been resolved, reporting a sample to the audit engine
// (with metrics on) allocates nothing.
func TestResidualSampleAllocs(t *testing.T) {
	aud := audit.New(audit.WithMetrics(obs.NewMetrics()))
	bank := NewBank()
	feed := residualFeed{sink: aud, kind: mstore.KindCPU, name: "h"}
	i := 0
	sample := func() {
		i++
		feed.update(bank, 0.5+0.4*math.Sin(float64(i)*0.7))
	}
	for range 50 {
		sample()
	}
	if allocs := testing.AllocsPerRun(200, sample); allocs != 0 {
		t.Fatalf("audited sample allocates %.1f objects, want 0", allocs)
	}
}
