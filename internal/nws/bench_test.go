package nws

import (
	"fmt"
	"testing"

	"apples/internal/grid"
	"apples/internal/load"
	"apples/internal/sim"
)

// benchValues pregenerates a measurement series so RNG cost stays out of
// the timed loop.
func benchValues(n int) []float64 {
	rng := sim.NewRand(1)
	out := make([]float64, n)
	x := 0.5
	for i := range out {
		x = 0.5 + 0.8*(x-0.5) + rng.Normal(0, 0.1)
		out[i] = x
	}
	return out
}

// windowBank builds a bank whose windowed forecasters all use window k,
// from the incremental (legacy=false) or copy+sort legacy (legacy=true)
// implementations.
func windowBank(k int, legacy bool) *Bank {
	ark := k
	if ark < 3 {
		ark = 3
	}
	if legacy {
		return NewBank(
			NewLastValue(),
			newLegacySlidingMean(k, "mean"),
			newLegacySlidingMedian(k, "median"),
			newLegacyTrimmedMean(k, k/8, "trim"),
			newLegacyWindowedAR1(ark, "ar"),
		)
	}
	return NewBank(
		NewLastValue(),
		NewSlidingMean(k, "mean"),
		NewSlidingMedian(k, "median"),
		NewTrimmedMean(k, k/8, "trim"),
		NewWindowedAR1(ark, "ar"),
	)
}

// BenchmarkBankUpdate measures the sensing hot path: one Update on a bank
// of forecasters. The default bank is what every Service sensor runs; the
// wN/legacy-wN pairs sweep window size to expose the O(k) vs O(log k)
// gap and the allocation behavior.
func BenchmarkBankUpdate(b *testing.B) {
	vals := benchValues(4096)
	run := func(name string, mk func() *Bank) {
		b.Run(name, func(b *testing.B) {
			bank := mk()
			for _, v := range vals[:256] { // warm past every window
				bank.Update(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank.Update(vals[i%len(vals)])
			}
		})
	}
	run("default", func() *Bank { return NewBank() })
	run("legacy-default", func() *Bank { return NewBank(legacyDefaultForecasters()...) })
	for _, k := range []int{5, 21, 101} {
		k := k
		run(fmt.Sprintf("w%d", k), func() *Bank { return windowBank(k, false) })
		run(fmt.Sprintf("legacy-w%d", k), func() *Bank { return windowBank(k, true) })
	}
}

func BenchmarkBankForecast(b *testing.B) {
	bank := NewBank()
	for _, v := range benchValues(1000) {
		bank.Update(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Forecast()
	}
}

// BenchmarkServiceTick measures one full sensing sweep (ObserveAll) over
// topologies of increasing size. Routing is never touched, so the
// topology is left unfinalized and sweeping 10k hosts stays cheap.
func BenchmarkServiceTick(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("series%d", n), func(b *testing.B) {
			eng := sim.NewEngine()
			tp := grid.NewTopology(eng)
			svc := NewService(eng, 10)
			for i := 0; i < n; i++ {
				h := tp.AddHost(grid.HostSpec{
					Name: fmt.Sprintf("h%04d", i), Speed: 10, MemoryMB: 64,
					Load: load.Constant(float64(i%7) * 0.3),
				})
				svc.WatchHost(h)
			}
			svc.ObserveAll(0) // warm: first sweep samples lazy load state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.ObserveAll(float64(i))
			}
		})
	}
}
