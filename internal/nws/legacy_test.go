package nws

import "sort"

// This file preserves the pre-optimization forecaster implementations —
// append-and-reslice buffers, per-query copy + sort.Float64s, raw running
// sums — verbatim, as test oracles. They are the ground truth the
// incremental forecasters in forecasters.go are differentially tested
// against (bit-identical for the windowed mean/median/trimmed family,
// tight-tolerance for the re-derived AR fits), and the "before" side of
// the BenchmarkBankUpdate legacy-* comparisons.

// legacySlidingMean is the reference sliding mean.
type legacySlidingMean struct {
	name string
	buf  []float64
	k    int
	sum  float64
}

// newLegacySlidingMean returns the reference copy-buffer sliding mean.
func newLegacySlidingMean(k int, name string) Forecaster {
	if k < 1 {
		panic("nws: sliding window must be >= 1")
	}
	return &legacySlidingMean{k: k, name: name}
}

func (f *legacySlidingMean) Name() string { return f.name }
func (f *legacySlidingMean) Update(v float64) {
	f.buf = append(f.buf, v)
	f.sum += v
	if len(f.buf) > f.k {
		f.sum -= f.buf[0]
		f.buf = f.buf[1:]
	}
}
func (f *legacySlidingMean) Forecast() float64 { return f.sum / float64(len(f.buf)) }
func (f *legacySlidingMean) Ready() bool       { return len(f.buf) > 0 }

// legacySlidingMedian is the reference copy+sort sliding median.
type legacySlidingMedian struct {
	name string
	buf  []float64
	k    int
}

// newLegacySlidingMedian returns the reference copy+sort sliding median.
func newLegacySlidingMedian(k int, name string) Forecaster {
	if k < 1 {
		panic("nws: sliding window must be >= 1")
	}
	return &legacySlidingMedian{k: k, name: name}
}

func (f *legacySlidingMedian) Name() string { return f.name }
func (f *legacySlidingMedian) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.k {
		f.buf = f.buf[1:]
	}
}
func (f *legacySlidingMedian) Forecast() float64 {
	tmp := append([]float64(nil), f.buf...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
func (f *legacySlidingMedian) Ready() bool { return len(f.buf) > 0 }

// legacyTrimmedMean is the reference copy+sort trimmed mean.
type legacyTrimmedMean struct {
	name string
	buf  []float64
	k    int
	trim int
}

// newLegacyTrimmedMean returns the reference copy+sort trimmed mean.
func newLegacyTrimmedMean(k, trim int, name string) Forecaster {
	if k < 1 || trim < 0 || 2*trim >= k {
		panic("nws: invalid trimmed-mean window")
	}
	return &legacyTrimmedMean{k: k, trim: trim, name: name}
}

func (f *legacyTrimmedMean) Name() string { return f.name }
func (f *legacyTrimmedMean) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.k {
		f.buf = f.buf[1:]
	}
}
func (f *legacyTrimmedMean) Forecast() float64 {
	tmp := append([]float64(nil), f.buf...)
	sort.Float64s(tmp)
	lo, hi := 0, len(tmp)
	if len(tmp) > 2*f.trim {
		lo, hi = f.trim, len(tmp)-f.trim
	}
	sum := 0.0
	for _, v := range tmp[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}
func (f *legacyTrimmedMean) Ready() bool { return len(f.buf) > 0 }

// legacyWindowedAR1 is the reference full re-fit windowed AR(1).
type legacyWindowedAR1 struct {
	name string
	buf  []float64
	k    int
}

// newLegacyWindowedAR1 returns the reference windowed AR(1) that re-fits
// mean and lag-1 coefficient with two full passes per query.
func newLegacyWindowedAR1(k int, name string) Forecaster {
	if k < 3 {
		panic("nws: windowed AR(1) needs k >= 3")
	}
	return &legacyWindowedAR1{k: k, name: name}
}

func (f *legacyWindowedAR1) Name() string { return f.name }
func (f *legacyWindowedAR1) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.k {
		f.buf = f.buf[1:]
	}
}
func (f *legacyWindowedAR1) Forecast() float64 {
	n := len(f.buf)
	last := f.buf[n-1]
	if n < 3 {
		return last
	}
	mean, sumXX, sumLag := 0.0, 0.0, 0.0
	for _, v := range f.buf {
		mean += v
	}
	mean /= float64(n)
	for i, v := range f.buf {
		d := v - mean
		sumXX += d * d
		if i > 0 {
			sumLag += (f.buf[i-1] - mean) * d
		}
	}
	phi := 0.0
	if sumXX > 1e-12 {
		phi = sumLag / sumXX
		if phi > 1 {
			phi = 1
		}
		if phi < -1 {
			phi = -1
		}
	}
	return mean + phi*(last-mean)
}
func (f *legacyWindowedAR1) Ready() bool { return len(f.buf) > 0 }

// legacyRunningMean is the reference raw-sum running mean.
type legacyRunningMean struct {
	sum float64
	n   int
}

// newLegacyRunningMean returns the reference raw-sum running mean.
func newLegacyRunningMean() Forecaster { return &legacyRunningMean{} }

func (f *legacyRunningMean) Name() string { return "run_mean" }
func (f *legacyRunningMean) Update(v float64) {
	f.sum += v
	f.n++
}
func (f *legacyRunningMean) Forecast() float64 { return f.sum / float64(f.n) }
func (f *legacyRunningMean) Ready() bool       { return f.n > 0 }

// legacyAR1Fit is the reference raw-sum whole-history AR(1) fit.
type legacyAR1Fit struct {
	prev     float64
	seen     int
	sumX     float64
	sumXX    float64
	sumLagXY float64
	n        float64
}

// newLegacyAR1Fit returns the reference raw-sum AR(1) fit.
func newLegacyAR1Fit() Forecaster { return &legacyAR1Fit{} }

func (f *legacyAR1Fit) Name() string { return "ar1" }
func (f *legacyAR1Fit) Update(v float64) {
	if f.seen > 0 {
		f.sumLagXY += f.prev * v
		f.n++
	}
	f.sumX += v
	f.sumXX += v * v
	f.seen++
	f.prev = v
}
func (f *legacyAR1Fit) Forecast() float64 {
	mean := f.sumX / float64(f.seen)
	phi := 0.0
	if f.n >= 2 {
		// lag-1 autocovariance / variance, both around the running mean
		cov := f.sumLagXY/f.n - mean*mean
		variance := f.sumXX/float64(f.seen) - mean*mean
		if variance > 1e-12 {
			phi = cov / variance
			if phi > 1 {
				phi = 1
			}
			if phi < -1 {
				phi = -1
			}
		}
	}
	return mean + phi*(f.prev-mean)
}
func (f *legacyAR1Fit) Ready() bool { return f.seen > 0 }

// legacyDefaultForecasters mirrors DefaultForecasters with the reference
// implementations substituted where they exist — the "before" bank for
// differential tests and throughput comparisons.
func legacyDefaultForecasters() []Forecaster {
	return []Forecaster{
		NewLastValue(),
		newLegacyRunningMean(),
		newLegacySlidingMean(5, "win_mean_5"),
		newLegacySlidingMean(20, "win_mean_20"),
		newLegacySlidingMedian(5, "win_med_5"),
		newLegacySlidingMedian(21, "win_med_21"),
		NewExpSmoothing(0.05, "exp_0.05"),
		NewExpSmoothing(0.3, "exp_0.30"),
		NewExpSmoothing(0.7, "exp_0.70"),
		NewAdaptiveSmoothing(),
		newLegacyAR1Fit(),
		newLegacyTrimmedMean(15, 3, "trim_15_3"),
	}
}
