package nws

// Forecaster is an online one-step-ahead predictor. Update feeds one
// measurement; Forecast predicts the next one. Ready reports whether the
// forecaster has enough history to predict.
//
// Every forecaster in this package is incremental: Update does O(log k)
// work for a window of k samples (plus an O(trim)/O(1) standing-forecast
// refresh) and Forecast is an O(1) read of the standing prediction. The
// pre-optimization copy+sort implementations survive as test oracles
// (legacy_test.go); differential tests pin the incremental forms to
// them value-for-value.
type Forecaster interface {
	Name() string
	Update(v float64)
	Forecast() float64
	Ready() bool
}

// scoreAbsorber is the bank's combined score+absorb hot path: it returns
// the standing forecast as of before v (what the bank scores), then
// absorbs v — one virtual call per forecaster per tick instead of the
// Ready/Forecast/Update triple, and no recomputation of a forecast that
// the forecaster already keeps on hand. Foreign Forecaster
// implementations that lack it still work through the generic path.
type scoreAbsorber interface {
	scoreAbsorb(v float64) (standing float64, ready bool)
}

// ringWindowed is implemented by windowed forecasters so a Bank can
// replace their private rings with one shared ring sized to the largest
// window (see NewBank). attachRing reports whether the forecaster
// adopted the ring; it declines if either side has already absorbed
// samples or the ring is too small for its window.
type ringWindowed interface {
	window() int
	attachRing(r *ring) bool
}

// --- shared windowed core ---

// windowed is the common core of every sliding-window forecaster: the
// window size k, the backing ring (private until a bank shares its own),
// the current window occupancy, and the cached standing forecast.
type windowed struct {
	name     string
	k        int
	r        *ring
	own      bool // this forecaster pushes into r itself
	n        int  // samples currently in the window
	standing float64
}

func newWindowed(k int, name string) windowed {
	return windowed{name: name, k: k, r: newRing(k), own: true}
}

func (w *windowed) Name() string      { return w.name }
func (w *windowed) Ready() bool       { return w.n > 0 }
func (w *windowed) Forecast() float64 { return w.standing }
func (w *windowed) window() int       { return w.k }

func (w *windowed) attachRing(r *ring) bool {
	if w.r.total != 0 || r.total != 0 || len(r.data) < w.k {
		return false
	}
	w.r = r
	w.own = false
	return true
}

// evicting reports whether absorbing one more sample pushes one out of
// the window, and returns it.
func (w *windowed) evicting() (float64, bool) {
	if w.n < w.k {
		return 0, false
	}
	return w.r.back(w.k - 1), true
}

// --- last value ---

type lastValue struct {
	v    float64
	seen bool
}

// NewLastValue predicts the next measurement equals the current one. Hard
// to beat on strongly autocorrelated series like Unix load.
func NewLastValue() Forecaster { return &lastValue{} }

func (f *lastValue) Name() string      { return "last" }
func (f *lastValue) Update(v float64)  { f.v, f.seen = v, true }
func (f *lastValue) Forecast() float64 { return f.v }
func (f *lastValue) Ready() bool       { return f.seen }
func (f *lastValue) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.v, f.seen
	f.v, f.seen = v, true
	return prev, ready
}

// --- running mean ---

type runningMean struct {
	mean float64
	n    int
}

// NewRunningMean predicts the mean of the entire history, maintained as a
// Welford update so precision holds on long series with large offsets.
// Best for stationary noisy series.
func NewRunningMean() Forecaster { return &runningMean{} }

func (f *runningMean) Name() string { return "run_mean" }
func (f *runningMean) Update(v float64) {
	f.n++
	f.mean += (v - f.mean) / float64(f.n)
}
func (f *runningMean) Forecast() float64 { return f.mean }
func (f *runningMean) Ready() bool       { return f.n > 0 }
func (f *runningMean) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.mean, f.n > 0
	f.Update(v)
	return prev, ready
}

// --- sliding window mean ---

type slidingMean struct {
	windowed
	sum float64
}

// NewSlidingMean predicts the mean of the last k measurements, maintained
// by add/evict corrections against the ring.
func NewSlidingMean(k int, name string) Forecaster {
	if k < 1 {
		panic("nws: sliding window must be >= 1")
	}
	return &slidingMean{windowed: newWindowed(k, name)}
}

func (f *slidingMean) absorb(v float64) {
	// Same arithmetic order as the legacy buffer: add the new sample,
	// then subtract the evicted one — keeps the sums bit-identical.
	f.sum += v
	if old, ok := f.evicting(); ok {
		f.sum -= old
	} else {
		f.n++
	}
	f.standing = f.sum / float64(f.n)
}

func (f *slidingMean) Update(v float64) {
	f.absorb(v)
	if f.own {
		f.r.push(v)
	}
}

func (f *slidingMean) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.standing, f.n > 0
	f.Update(v)
	return prev, ready
}

// --- sliding window median ---

type slidingMedian struct {
	windowed
	win *orderedWindow
}

// NewSlidingMedian predicts the median of the last k measurements; robust
// to load spikes. The window is kept as a sorted multiset, so an update
// is a binary-search insert/remove instead of a copy + full sort.
func NewSlidingMedian(k int, name string) Forecaster {
	if k < 1 {
		panic("nws: sliding window must be >= 1")
	}
	return &slidingMedian{windowed: newWindowed(k, name), win: newOrderedWindow(k)}
}

func (f *slidingMedian) absorb(v float64) {
	if old, ok := f.evicting(); ok {
		f.win.remove(old)
	} else {
		f.n++
	}
	f.win.insert(v)
	f.standing = f.win.median()
}

func (f *slidingMedian) Update(v float64) {
	f.absorb(v)
	if f.own {
		f.r.push(v)
	}
}

func (f *slidingMedian) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.standing, f.n > 0
	f.Update(v)
	return prev, ready
}

// --- exponential smoothing ---

type expSmooth struct {
	name  string
	alpha float64
	s     float64
	seen  bool
}

// NewExpSmoothing predicts s(t) = alpha*v + (1-alpha)*s(t-1). Small alpha
// tracks slow trends; large alpha approaches last-value.
func NewExpSmoothing(alpha float64, name string) Forecaster {
	if alpha <= 0 || alpha > 1 {
		panic("nws: smoothing gain must be in (0,1]")
	}
	return &expSmooth{alpha: alpha, name: name}
}

func (f *expSmooth) Name() string { return f.name }
func (f *expSmooth) Update(v float64) {
	if !f.seen {
		f.s, f.seen = v, true
		return
	}
	f.s = f.alpha*v + (1-f.alpha)*f.s
}
func (f *expSmooth) Forecast() float64 { return f.s }
func (f *expSmooth) Ready() bool       { return f.seen }
func (f *expSmooth) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.s, f.seen
	f.Update(v)
	return prev, ready
}

// --- adaptive exponential smoothing ---

type adaptiveSmooth struct {
	s, err float64
	absErr float64
	seen   bool
}

// NewAdaptiveSmoothing is Trigg-Leach adaptive-response smoothing: the gain
// is the |smoothed error| / smoothed |error| tracking signal, so it speeds
// up after level shifts and settles on stable stretches.
func NewAdaptiveSmoothing() Forecaster { return &adaptiveSmooth{} }

func (f *adaptiveSmooth) Name() string { return "adaptive" }
func (f *adaptiveSmooth) Update(v float64) {
	if !f.seen {
		f.s, f.seen = v, true
		return
	}
	const beta = 0.2
	e := v - f.s
	f.err = beta*e + (1-beta)*f.err
	ae := e
	if ae < 0 {
		ae = -ae
	}
	f.absErr = beta*ae + (1-beta)*f.absErr
	gain := 0.2
	if f.absErr > 1e-12 {
		gain = f.err / f.absErr
		if gain < 0 {
			gain = -gain
		}
		if gain > 1 {
			gain = 1
		}
	}
	f.s += gain * e
}
func (f *adaptiveSmooth) Forecast() float64 { return f.s }
func (f *adaptiveSmooth) Ready() bool       { return f.seen }
func (f *adaptiveSmooth) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.s, f.seen
	f.Update(v)
	return prev, ready
}

// --- online AR(1) ---

type ar1Fit struct {
	shift    float64 // first sample; all sums run on y = x - shift
	prevY    float64
	seen     int
	sumY     float64
	sumYY    float64
	sumLagYY float64
	n        float64
}

// NewAR1Fit predicts with an AR(1) model whose mean and lag-1 coefficient
// are estimated online from the whole history:
//
//	x(t+1) = mean + phi*(x(t) - mean)
//
// The moment sums are kept on samples shifted by the first measurement
// (phi is shift-invariant, and the mean shifts back exactly), which keeps
// the fit numerically stable on long series riding a large offset, where
// raw Σx² − n·mean² cancels catastrophically.
func NewAR1Fit() Forecaster { return &ar1Fit{} }

func (f *ar1Fit) Name() string { return "ar1" }
func (f *ar1Fit) Update(v float64) {
	if f.seen == 0 {
		f.shift = v
	}
	y := v - f.shift
	if f.seen > 0 {
		f.sumLagYY += f.prevY * y
		f.n++
	}
	f.sumY += y
	f.sumYY += y * y
	f.seen++
	f.prevY = y
}
func (f *ar1Fit) Forecast() float64 {
	mean := f.sumY / float64(f.seen)
	phi := 0.0
	if f.n >= 2 {
		// lag-1 autocovariance / variance, both around the running mean
		cov := f.sumLagYY/f.n - mean*mean
		variance := f.sumYY/float64(f.seen) - mean*mean
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
	return f.shift + mean + phi*(f.prevY-mean)
}
func (f *ar1Fit) Ready() bool { return f.seen > 0 }
func (f *ar1Fit) scoreAbsorb(v float64) (float64, bool) {
	var prev float64
	ready := f.seen > 0
	if ready {
		prev = f.Forecast()
	}
	f.Update(v)
	return prev, ready
}

// --- windowed AR(1) ---

type windowedAR1 struct {
	windowed
	shift       float64 // first sample ever; sums run on y = x - shift
	s, q, l     float64 // window Σy, Σy², Σ adjacent y·y products
	first, last float64 // oldest and newest shifted samples in the window
}

// NewWindowedAR1 fits the AR(1) mean and lag-1 coefficient over only the
// last k measurements, so it re-converges quickly after regime shifts
// that the whole-history NewAR1Fit averages away. The window moments
// (Σy, Σy², Σy·y₋₁ on samples shifted by the first measurement, for
// numerical stability under large offsets) are maintained by add/evict
// corrections against the ring instead of a full per-tick re-fit. Not
// part of the default bank (the reproduced experiments fix that set);
// callers compose it via
// NewBank(append(DefaultForecasters(), NewWindowedAR1(30, "war1_30"))...).
func NewWindowedAR1(k int, name string) Forecaster {
	if k < 3 {
		panic("nws: windowed AR(1) needs k >= 3")
	}
	return &windowedAR1{windowed: newWindowed(k, name)}
}

func (f *windowedAR1) absorb(v float64) {
	if f.r.total == 0 {
		f.shift = v
	}
	y := v - f.shift
	if f.n >= 1 {
		f.l += (f.r.back(0) - f.shift) * y // new adjacent pair (latest, v)
	}
	if old, ok := f.evicting(); ok {
		oldY := old - f.shift
		f.s -= oldY
		f.q -= oldY * oldY
		f.l -= oldY * (f.r.back(f.k-2) - f.shift) // pair between the two oldest
	} else {
		f.n++
	}
	f.s += y
	f.q += y * y
	f.last = y
	if f.n >= 2 {
		f.first = f.r.back(f.n-2) - f.shift // oldest survivor (v not yet pushed)
	} else {
		f.first = y
	}
	f.refit()
}

// refit recomputes the standing forecast from the window moments: the
// centered sums the legacy fit looped for fall out algebraically as
//
//	Σ(y−m)²          = Σy² − n·m²
//	Σ(y₋₁−m)(y−m)    = Σy·y₋₁ − m(Σy−first) − m(Σy−last) + (n−1)m²
//
// both invariant under the first-sample shift, which only moves the mean.
func (f *windowedAR1) refit() {
	if f.n < 3 {
		f.standing = f.shift + f.last
		return
	}
	n := float64(f.n)
	mean := f.s / n
	sumYY := f.q - n*mean*mean
	sumLag := f.l - mean*((f.s-f.last)+(f.s-f.first)) + (n-1)*mean*mean
	phi := 0.0
	if sumYY > 1e-12 {
		phi = sumLag / sumYY
		if phi > 1 {
			phi = 1
		}
		if phi < -1 {
			phi = -1
		}
	}
	f.standing = f.shift + mean + phi*(f.last-mean)
}

func (f *windowedAR1) Update(v float64) {
	f.absorb(v)
	if f.own {
		f.r.push(v)
	}
}

func (f *windowedAR1) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.standing, f.n > 0
	f.Update(v)
	return prev, ready
}

// --- trimmed sliding mean ---

type trimmedMean struct {
	windowed
	trim int
	win  *orderedWindow
}

// NewTrimmedMean predicts the mean of the last k measurements after
// dropping the `trim` largest and smallest.
func NewTrimmedMean(k, trim int, name string) Forecaster {
	if k < 1 || trim < 0 || 2*trim >= k {
		panic("nws: invalid trimmed-mean window")
	}
	return &trimmedMean{windowed: newWindowed(k, name), trim: trim, win: newOrderedWindow(k)}
}

func (f *trimmedMean) absorb(v float64) {
	if old, ok := f.evicting(); ok {
		f.win.remove(old)
	} else {
		f.n++
	}
	f.win.insert(v)
	f.standing = f.win.trimmedMean(f.trim)
}

func (f *trimmedMean) Update(v float64) {
	f.absorb(v)
	if f.own {
		f.r.push(v)
	}
}

func (f *trimmedMean) scoreAbsorb(v float64) (float64, bool) {
	prev, ready := f.standing, f.n > 0
	f.Update(v)
	return prev, ready
}

// DefaultForecasters returns the standard NWS-style predictor bank.
func DefaultForecasters() []Forecaster {
	return []Forecaster{
		NewLastValue(),
		NewRunningMean(),
		NewSlidingMean(5, "win_mean_5"),
		NewSlidingMean(20, "win_mean_20"),
		NewSlidingMedian(5, "win_med_5"),
		NewSlidingMedian(21, "win_med_21"),
		NewExpSmoothing(0.05, "exp_0.05"),
		NewExpSmoothing(0.3, "exp_0.30"),
		NewExpSmoothing(0.7, "exp_0.70"),
		NewAdaptiveSmoothing(),
		NewAR1Fit(),
		NewTrimmedMean(15, 3, "trim_15_3"),
	}
}
