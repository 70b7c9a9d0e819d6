package nws

import (
	"fmt"
	"math"
	"strings"
)

// Bank performs dynamic predictor selection over a set of forecasters.
// On each measurement it first scores every ready forecaster's standing
// prediction (cumulative squared and absolute error), then lets each
// forecaster absorb the measurement. Forecast returns the prediction of
// the forecaster with the lowest mean squared error so far.
//
// The update path is allocation-free: forecasters that implement the
// combined score+absorb step hand the bank their cached standing
// forecast in the same call that absorbs the measurement, and all
// windowed forecasters share one ring buffer sized to the largest window
// that the bank pushes into exactly once per measurement.
type Bank struct {
	fcs    []Forecaster
	sa     []scoreAbsorber // sa[i] non-nil when fcs[i] supports the fused path
	ring   *ring           // shared window storage, nil without windowed forecasters
	sqErr  []float64
	absErr []float64
	scored []int // how many predictions each forecaster has been scored on
	n      int   // total measurements
	last   float64
	sum    float64
	// pred and ready, allocated by the first updateScored, hold each
	// forecaster's standing prediction as the last update scored it.
	pred  []float64
	ready []bool
}

// NewBank builds a bank over the given forecasters (DefaultForecasters()
// when none are supplied). Fresh windowed forecasters are re-pointed at
// one shared ring sized to the largest window; a forecaster that has
// already absorbed history keeps its own buffer. A forecaster instance
// must belong to at most one bank.
func NewBank(fcs ...Forecaster) *Bank {
	if len(fcs) == 0 {
		fcs = DefaultForecasters()
	}
	b := &Bank{
		fcs:    fcs,
		sa:     make([]scoreAbsorber, len(fcs)),
		sqErr:  make([]float64, len(fcs)),
		absErr: make([]float64, len(fcs)),
		scored: make([]int, len(fcs)),
	}
	maxK := 0
	for i, f := range fcs {
		if sa, ok := f.(scoreAbsorber); ok {
			b.sa[i] = sa
		}
		if w, ok := f.(ringWindowed); ok && w.window() > maxK {
			maxK = w.window()
		}
	}
	if maxK > 0 {
		shared := newRing(maxK)
		for _, f := range fcs {
			if w, ok := f.(ringWindowed); ok && w.attachRing(shared) {
				b.ring = shared
			}
		}
	}
	return b
}

// Update scores all standing predictions against v, then feeds v to every
// forecaster. Steady state allocates nothing.
func (b *Bank) Update(v float64) {
	pred, readyOut := b.pred, b.ready
	for i, f := range b.fcs {
		var fc float64
		var ready bool
		if sa := b.sa[i]; sa != nil {
			fc, ready = sa.scoreAbsorb(v)
		} else {
			if ready = f.Ready(); ready {
				fc = f.Forecast()
			}
			f.Update(v)
		}
		if pred != nil { // recording since the first updateScored
			pred[i], readyOut[i] = fc, ready
		}
		if ready {
			e := fc - v
			b.sqErr[i] += e * e
			b.absErr[i] += math.Abs(e)
			b.scored[i]++
		}
	}
	if b.ring != nil {
		b.ring.push(v)
	}
	b.n++
	b.last = v
	b.sum += v
}

// updateScored is Update that also returns, by bank position, every
// forecaster's standing prediction of v and whether it was ready: the
// values Update scored, in the bank's scratch, valid until the next
// update.
func (b *Bank) updateScored(v float64) ([]float64, []bool) {
	if b.pred == nil {
		b.pred, b.ready = make([]float64, len(b.fcs)), make([]bool, len(b.fcs))
	}
	b.Update(v)
	return b.pred, b.ready
}

// Len reports how many measurements the bank has absorbed.
func (b *Bank) Len() int { return b.n }

// Last returns the most recent measurement.
func (b *Bank) Last() float64 { return b.last }

// Mean returns the running mean of all measurements — the bank's
// long-horizon estimate, appropriate when the scheduling time frame spans
// many mean-reversion times of the underlying load (the one-step Forecast
// tracks the current level instead).
func (b *Bank) Mean() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sum / float64(b.n)
}

// Ready reports whether at least one forecaster can predict.
func (b *Bank) Ready() bool {
	for _, f := range b.fcs {
		if f.Ready() {
			return true
		}
	}
	return false
}

// best returns the index of the lowest-MSE scored forecaster, or the first
// ready one before any scoring has happened, or -1.
func (b *Bank) best() int {
	bestIdx, bestMSE := -1, math.Inf(1)
	for i, f := range b.fcs {
		if !f.Ready() {
			continue
		}
		if b.scored[i] == 0 {
			if bestIdx == -1 {
				bestIdx = i
			}
			continue
		}
		mse := b.sqErr[i] / float64(b.scored[i])
		if mse < bestMSE {
			bestIdx, bestMSE = i, mse
		}
	}
	return bestIdx
}

// Forecast returns the current one-step-ahead prediction and the name of
// the forecaster that produced it. ok is false before any measurements.
func (b *Bank) Forecast() (value float64, by string, ok bool) {
	i := b.best()
	if i < 0 {
		return 0, "", false
	}
	return b.fcs[i].Forecast(), b.fcs[i].Name(), true
}

// names returns the forecasters' names in bank order.
func (b *Bank) names() []string {
	out := make([]string, len(b.fcs))
	for i, f := range b.fcs {
		out[i] = f.Name()
	}
	return out
}

// ErrorEstimate returns the root-mean-squared error of the currently
// selected forecaster — the agent's measure of how much to trust the
// forecast. ok is false until at least one prediction has been scored.
func (b *Bank) ErrorEstimate() (rmse float64, ok bool) {
	i := b.best()
	if i < 0 || b.scored[i] == 0 {
		return 0, false
	}
	return math.Sqrt(b.sqErr[i] / float64(b.scored[i])), true
}

// MSE returns forecaster name -> mean squared prediction error, for
// forecasters that have been scored at least once.
func (b *Bank) MSE() map[string]float64 {
	out := make(map[string]float64, len(b.fcs))
	for i, f := range b.fcs {
		if b.scored[i] > 0 {
			out[f.Name()] = b.sqErr[i] / float64(b.scored[i])
		}
	}
	return out
}

// MAE returns forecaster name -> mean absolute prediction error.
func (b *Bank) MAE() map[string]float64 {
	out := make(map[string]float64, len(b.fcs))
	for i, f := range b.fcs {
		if b.scored[i] > 0 {
			out[f.Name()] = b.absErr[i] / float64(b.scored[i])
		}
	}
	return out
}

// String summarizes the bank's current selection and per-forecaster MSE.
func (b *Bank) String() string {
	var sb strings.Builder
	_, by, ok := b.Forecast()
	fmt.Fprintf(&sb, "bank[n=%d selected=%s ok=%v]", b.n, by, ok)
	return sb.String()
}
