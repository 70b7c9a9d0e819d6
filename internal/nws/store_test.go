package nws

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"apples/internal/grid"
	"apples/internal/load"
	"apples/internal/mstore"
	"apples/internal/sim"
)

// bankFingerprint is everything observable about one forecaster bank:
// the selected forecast and its winner, the trust estimate, the running
// mean, and the full per-forecaster error state. Warm-start parity means
// two banks produce equal fingerprints, compared with == on every float.
type bankFingerprint struct {
	Len      int
	Last     float64
	Mean     float64
	Forecast float64
	By       string
	OK       bool
	RMSE     float64
	RMSEOK   bool
	MSE      map[string]float64
	MAE      map[string]float64
}

func fingerprint(b *Bank) bankFingerprint {
	if b == nil {
		return bankFingerprint{}
	}
	fp := bankFingerprint{Len: b.Len(), Last: b.Last(), MSE: b.MSE(), MAE: b.MAE()}
	if b.Len() > 0 {
		fp.Mean = b.Mean()
	}
	fp.Forecast, fp.By, fp.OK = b.Forecast()
	fp.RMSE, fp.RMSEOK = b.ErrorEstimate()
	return fp
}

// serviceFingerprints maps every watched resource to its bank state.
func serviceFingerprints(svc *Service, tp *grid.Topology) map[string]bankFingerprint {
	out := make(map[string]bankFingerprint)
	for _, h := range tp.Hosts() {
		out["cpu:"+h.Name] = fingerprint(svc.CPUBank(h.Name))
	}
	for _, l := range tp.Links() {
		out["bw:"+l.Name] = fingerprint(svc.LinkBank(l.Name))
	}
	return out
}

// TestStoreWarmStartDifferential is the warm-start parity sweep: one
// service lives through T1+T2 seconds of sensing; a second senses T1
// seconds into a store, "dies", and a fresh service restores from the
// store and senses the remaining T2 on the same (deterministic) world.
// Across seeds × forecaster sets, every bank must end bit-identical —
// forecasts, winners, per-forecaster error state — which is the
// RestoreFromStore contract over the full history.
func TestStoreWarmStartDifferential(t *testing.T) {
	const period, t1, t2 = 10.0, 300.0, 200.0
	banks := map[string]func() *Bank{
		"default": func() *Bank { return NewBank() },
		"windowed": func() *Bank {
			return NewBank(NewLastValue(), NewSlidingMean(21, "mean21"),
				NewSlidingMedian(31, "med31"), NewExpSmoothing(0.3, "exp03"))
		},
		"minimal": func() *Bank { return NewBank(NewRunningMean(), NewAR1Fit()) },
	}
	for _, seed := range []int64{11, 77} {
		for bankName, mk := range banks {
			opts := func() []ServiceOption {
				return []ServiceOption{WithBankFactory(mk)}
			}

			// Reference: one service, uninterrupted sensing.
			engA := sim.NewEngine()
			tpA := grid.SDSCPCL(engA, grid.TestbedOptions{Seed: seed})
			svcA := NewService(engA, period, opts()...)
			svcA.WatchTopology(tpA)
			if err := engA.RunUntil(t1 + t2); err != nil {
				t.Fatal(err)
			}

			// Restarted: sense T1 into a store, stop (the "crash"),
			// restore into a fresh service, sense the rest.
			dir := t.TempDir()
			st, err := mstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			engB := sim.NewEngine()
			tpB := grid.SDSCPCL(engB, grid.TestbedOptions{Seed: seed})
			svcB1 := NewService(engB, period, append(opts(), WithStore(st))...)
			svcB1.WatchTopology(tpB)
			if err := engB.RunUntil(t1); err != nil {
				t.Fatal(err)
			}
			svcB1.Stop()
			if err := svcB1.StoreErr(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := mstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			svcB2 := NewService(engB, period, append(opts(), WithStore(re))...)
			replayed, err := svcB2.RestoreFromStore(re)
			if err != nil {
				t.Fatal(err)
			}
			wantReplayed := int(t1/period) * (len(tpB.Hosts()) + len(tpB.Links()))
			if replayed != wantReplayed {
				t.Fatalf("seed=%d bank=%s: replayed %d records, want %d",
					seed, bankName, replayed, wantReplayed)
			}
			svcB2.WatchTopology(tpB)
			if err := engB.RunUntil(t1 + t2); err != nil {
				t.Fatal(err)
			}
			svcB2.Stop()
			if err := svcB2.StoreErr(); err != nil {
				t.Fatal(err)
			}

			want := serviceFingerprints(svcA, tpA)
			got := serviceFingerprints(svcB2, tpB)
			if !reflect.DeepEqual(got, want) {
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Errorf("seed=%d bank=%s: %s diverged:\nlive    %+v\nrestart %+v",
							seed, bankName, k, want[k], got[k])
					}
				}
				t.FailNow()
			}

			// The continued store now holds the full history: a third
			// service restored from it alone must match too.
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := mstore.Open(dir, mstore.ReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			svcC := NewService(sim.NewEngine(), period, opts()...)
			if _, err := svcC.RestoreFromStore(final); err != nil {
				t.Fatal(err)
			}
			if got := serviceFingerprints(svcC, tpA); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d bank=%s: restore of the full history diverged from the live run",
					seed, bankName)
			}
		}
	}
}

// TestStoreTicksMonotonicAcrossRestart pins the tick contract: a series'
// records carry its 1-based sample positions, and a restart that
// restores before sensing continues the numbering instead of starting
// over.
func TestStoreTicksMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	run := func(restore bool, horizon float64) {
		st, err := mstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		eng := sim.NewEngine()
		tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 5})
		svc := NewService(eng, 10, WithStore(st))
		if restore {
			if _, err := svc.RestoreFromStore(st); err != nil {
				t.Fatal(err)
			}
		}
		svc.WatchTopology(tp)
		if err := eng.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		svc.Stop()
		if err := svc.StoreErr(); err != nil {
			t.Fatal(err)
		}
	}
	run(false, 100)
	run(true, 100) // second process: 10 more sweeps after restore

	final, err := mstore.Open(dir, mstore.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(map[string]uint64)
	for r, err := range final.Records() {
		if err != nil {
			t.Fatal(err)
		}
		key := r.Kind.String() + ":" + r.Series
		if r.Tick != ticks[key]+1 {
			t.Fatalf("series %s jumped from tick %d to %d", key, ticks[key], r.Tick)
		}
		ticks[key] = r.Tick
	}
	if got := ticks["cpu:sparc2"]; got != 20 {
		t.Fatalf("sparc2 reached tick %d after two 10-sweep runs, want 20", got)
	}
}

// TestRestoreFromStoreAfterWatchRejected: restoring once sensors run
// would swap in banks the running sensors never update, freezing the
// forecasts. RestoreFromStore must refuse with ErrRestoreAfterWatch and
// leave the live banks in place and still absorbing samples.
func TestRestoreFromStoreAfterWatchRejected(t *testing.T) {
	st, err := mstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 11})
	svc := NewService(eng, 10, WithStore(st))
	svc.WatchTopology(tp)
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	live := svc.CPUBank("sparc2")
	before := live.Len()

	replayed, err := svc.RestoreFromStore(st)
	if !errors.Is(err, ErrRestoreAfterWatch) || replayed != 0 {
		t.Fatalf("restore after watch = (%d, %v), want (0, ErrRestoreAfterWatch)", replayed, err)
	}
	if svc.CPUBank("sparc2") != live {
		t.Fatal("rejected restore replaced the live bank")
	}
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if got := svc.CPUBank("sparc2").Len(); got != before+90 {
		t.Fatalf("sparc2 bank holds %d samples after 90 more sweeps, want %d", got, before+90)
	}
}

// Property: for arbitrary short AR(1) series, sensing into a store and
// restoring a fresh service from it reproduces the bank bit for bit.
func TestStoreRoundTripForecastProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 5
		st, err := mstore.Open(t.TempDir())
		if err != nil {
			return false
		}
		defer st.Close()

		eng := sim.NewEngine()
		tp := grid.NewTopology(eng)
		src := load.NewAR1(sim.NewRand(seed), 1, 1, 0.8, 0.4)
		h := tp.AddHost(grid.HostSpec{Name: "h", Speed: 10, MemoryMB: 64, Load: src})
		tp.Finalize()
		svc := NewService(eng, 1, WithStore(st))
		svc.WatchHost(h)
		if err := eng.RunUntil(float64(n)); err != nil || svc.StoreErr() != nil {
			return false
		}

		svc2 := NewService(sim.NewEngine(), 1)
		if replayed, err := svc2.RestoreFromStore(st); err != nil || replayed != svc.CPUBank("h").Len() {
			return false
		}
		a, okA := svc.AvailabilityForecast("h")
		b, okB := svc2.AvailabilityForecast("h")
		return okA == okB && a == b &&
			reflect.DeepEqual(fingerprint(svc.CPUBank("h")), fingerprint(svc2.CPUBank("h")))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
