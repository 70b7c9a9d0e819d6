package nws

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"apples/internal/sim"
)

// diffSeries builds deterministic test series of several shapes: smooth
// AR(1)-like, spiky, stepped, and duplicate-heavy (duplicates stress the
// sorted-multiset remove path).
func diffSeries(seed int64, n int, kind int) []float64 {
	rng := sim.NewRand(seed)
	out := make([]float64, n)
	x := rng.Uniform(0, 1)
	for i := range out {
		switch kind % 4 {
		case 0: // smooth autocorrelated
			x = 0.5 + 0.8*(x-0.5) + rng.Normal(0, 0.1)
			out[i] = x
		case 1: // spiky
			out[i] = rng.Uniform(0, 1)
			if rng.Bool(0.05) {
				out[i] = rng.Uniform(20, 50)
			}
		case 2: // stepped with plateaus
			if i%17 == 0 {
				x = rng.Uniform(0, 4)
			}
			out[i] = x
		default: // duplicate-heavy small alphabet
			out[i] = float64(rng.Intn(5))
		}
	}
	return out
}

// Differential: the incremental sliding mean/median/trimmed mean return
// bit-identical forecasts to the legacy copy+sort implementations after
// every update, across window sizes and series shapes.
func TestIncrementalMatchesLegacyBitIdentical(t *testing.T) {
	windows := []int{1, 2, 3, 5, 8, 21, 50, 101}
	for _, k := range windows {
		for kind := 0; kind < 4; kind++ {
			series := diffSeries(int64(100*k+kind), 400, kind)
			pairs := []struct {
				name        string
				incr, legcy Forecaster
			}{
				{"mean", NewSlidingMean(k, "m"), NewLegacySlidingMean(k, "m")},
				{"median", NewSlidingMedian(k, "m"), NewLegacySlidingMedian(k, "m")},
			}
			if trim := k / 4; 2*trim < k {
				pairs = append(pairs, struct {
					name        string
					incr, legcy Forecaster
				}{"trimmed", NewTrimmedMean(k, trim, "t"), NewLegacyTrimmedMean(k, trim, "t")})
			}
			for _, p := range pairs {
				for i, v := range series {
					if p.incr.Ready() != p.legcy.Ready() {
						t.Fatalf("%s k=%d kind=%d: Ready mismatch at %d", p.name, k, kind, i)
					}
					p.incr.Update(v)
					p.legcy.Update(v)
					got, want := p.incr.Forecast(), p.legcy.Forecast()
					if got != want {
						t.Fatalf("%s k=%d kind=%d step %d: incremental %v != legacy %v",
							p.name, k, kind, i, got, want)
					}
				}
			}
		}
	}
}

// Differential: the incrementally-maintained windowed AR(1) matches the
// legacy two-pass re-fit to floating-point re-association error (the
// window moments are the same sums, accumulated in a different order).
func TestWindowedAR1MatchesLegacy(t *testing.T) {
	for _, k := range []int{3, 5, 21, 101} {
		for kind := 0; kind < 4; kind++ {
			series := diffSeries(int64(7*k+kind), 400, kind)
			incr := NewWindowedAR1(k, "w")
			legcy := NewLegacyWindowedAR1(k, "w")
			for i, v := range series {
				incr.Update(v)
				legcy.Update(v)
				got, want := incr.Forecast(), legcy.Forecast()
				scale := math.Max(1, math.Abs(want))
				if math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("war1 k=%d kind=%d step %d: incremental %v vs legacy %v",
						k, kind, i, got, want)
				}
			}
		}
	}
}

// Differential: a bank of incremental copy+sort-family forecasters (which
// share one ring) accumulates bit-identical error state and selections to
// a bank of the legacy ones.
func TestBankSharedRingMatchesLegacyBank(t *testing.T) {
	mkIncr := func() *Bank {
		return NewBank(
			NewLastValue(),
			NewSlidingMean(5, "win_mean_5"),
			NewSlidingMean(20, "win_mean_20"),
			NewSlidingMedian(5, "win_med_5"),
			NewSlidingMedian(21, "win_med_21"),
			NewTrimmedMean(15, 3, "trim_15_3"),
		)
	}
	mkLegacy := func() *Bank {
		return NewBank(
			NewLastValue(),
			NewLegacySlidingMean(5, "win_mean_5"),
			NewLegacySlidingMean(20, "win_mean_20"),
			NewLegacySlidingMedian(5, "win_med_5"),
			NewLegacySlidingMedian(21, "win_med_21"),
			NewLegacyTrimmedMean(15, 3, "trim_15_3"),
		)
	}
	f := func(seed int64, kindRaw uint8) bool {
		kind := int(kindRaw % 4)
		series := diffSeries(seed, 300, kind)
		a, b := mkIncr(), mkLegacy()
		for _, v := range series {
			a.Update(v)
			b.Update(v)
		}
		va, bya, oka := a.Forecast()
		vb, byb, okb := b.Forecast()
		if va != vb || bya != byb || oka != okb {
			return false
		}
		ma, mb := a.MSE(), b.MSE()
		if len(ma) != len(mb) {
			return false
		}
		for name, v := range ma {
			if mb[name] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: forecasters sharing a bank ring forecast identically to
// standalone instances of themselves fed the same series (the shared ring
// is pure representation sharing).
func TestSharedRingEquivalentToPrivateRings(t *testing.T) {
	f := func(seed int64, kindRaw uint8) bool {
		kind := int(kindRaw % 4)
		series := diffSeries(seed, 200, kind)
		shared := []Forecaster{
			NewSlidingMean(7, "a"),
			NewSlidingMedian(13, "b"),
			NewTrimmedMean(21, 4, "c"),
			NewWindowedAR1(9, "d"),
		}
		private := []Forecaster{
			NewSlidingMean(7, "a"),
			NewSlidingMedian(13, "b"),
			NewTrimmedMean(21, 4, "c"),
			NewWindowedAR1(9, "d"),
		}
		bank := NewBank(shared...)
		for _, v := range series {
			bank.Update(v)
			for _, p := range private {
				p.Update(v)
			}
		}
		for i := range shared {
			if shared[i].Forecast() != private[i].Forecast() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A forecaster that already absorbed history must keep its private buffer
// when handed to a bank, and still forecast correctly.
func TestBankKeepsWarmForecasterPrivate(t *testing.T) {
	warm := NewSlidingMedian(5, "warm")
	for _, v := range []float64{9, 1, 7} {
		warm.Update(v)
	}
	bank := NewBank(warm, NewSlidingMedian(5, "cold"))
	for _, v := range []float64{2, 8} {
		bank.Update(v)
	}
	// warm window: 9,1,7,2,8 -> median 7; cold window: 2,8 -> median 5.
	if got := warm.Forecast(); got != 7 {
		t.Fatalf("warm median %v, want 7", got)
	}
	ref := NewLegacySlidingMedian(5, "ref")
	for _, v := range []float64{2, 8} {
		ref.Update(v)
	}
	if got, want := bank.fcs[1].Forecast(), ref.Forecast(); got != want {
		t.Fatalf("cold median %v, want %v", got, want)
	}
}

// Numerical stability: the running mean and full-history AR(1) must stay
// accurate on a long series riding a 1e9 offset, where the legacy raw
// Σx/Σx² accumulation loses the signal to cancellation.
func TestStabilityOnLargeOffsetSeries(t *testing.T) {
	const offset = 1e9
	mean := NewRunningMean()
	ar := NewAR1Fit()
	war := NewWindowedAR1(21, "w")
	// Alternating ±1 around the offset: true mean = offset, and the next
	// value is perfectly predicted by -1 * (last - mean) + mean.
	n := 200000
	for i := 0; i < n; i++ {
		v := offset + float64(1-2*(i%2))
		mean.Update(v)
		ar.Update(v)
		war.Update(v)
	}
	if got := mean.Forecast(); math.Abs(got-offset) > 1e-3 {
		t.Fatalf("running mean %v, want %v", got, offset)
	}
	// Last value was offset-1 (i ends odd), so an accurate AR(1) with
	// phi ~ -1 predicts ~ offset+1.
	if got := ar.Forecast(); math.Abs(got-(offset+1)) > 0.05 {
		t.Fatalf("ar1 forecast %v, want ~%v", got, offset+1)
	}
	// The finite-window fit biases phi toward zero (|phi| ~ 0.86 at
	// k=21), so only require the forecast to sit clearly above the mean —
	// catastrophic cancellation would pin phi (and the excursion) to ~0.
	if got := war.Forecast(); got < offset+0.5 || got > offset+1.5 {
		t.Fatalf("windowed ar1 forecast %v, want ~%v", got, offset+1)
	}
}

// ring unit coverage: wraparound and back indexing.
func TestRingWraparound(t *testing.T) {
	r := newRing(3)
	for i := 1; i <= 5; i++ {
		r.push(float64(i))
	}
	if r.len() != 3 || r.total != 5 {
		t.Fatalf("len=%d total=%d", r.len(), r.total)
	}
	for i, want := range []float64{5, 4, 3} {
		if got := r.back(i); got != want {
			t.Fatalf("back(%d)=%v, want %v", i, got, want)
		}
	}
}

func TestOrderedWindowDuplicates(t *testing.T) {
	w := newOrderedWindow(4)
	for _, v := range []float64{2, 2, 1, 2} {
		w.insert(v)
	}
	w.remove(2)
	if got := fmt.Sprint(w.sorted); got != "[1 2 2]" {
		t.Fatalf("after remove: %v", got)
	}
	if w.median() != 2 {
		t.Fatalf("median %v", w.median())
	}
}
