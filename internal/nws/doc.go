// Package nws reimplements the Network Weather Service the paper's AppLeS
// agents rely on for dynamic information: periodic sensing of CPU
// availability and network capability, plus short-term forecasts of both.
//
// Forecasting follows the actual NWS design (Wolski's postcasting
// approach): every monitored series feeds a bank of simple forecasters
// (last value, running/sliding means, medians, exponential smoothing at
// several gains, an online-fit AR(1), ...). Each new measurement first
// scores every forecaster's previous prediction, then updates it; a
// Forecast query returns the prediction of the forecaster with the lowest
// accumulated error *on this series so far*. No single predictor wins on
// all load processes — dynamic selection is what makes the service robust,
// and the ablation benchmarks in this repository reproduce that effect.
//
// The sensing hot path is incremental and allocation-free in steady
// state: all windowed forecasters in a bank share one fixed-capacity ring
// buffer (pushed exactly once per measurement), order statistics (sliding
// median, trimmed mean) come from a sorted multiset updated in O(log k)
// per measurement, and the windowed AR(1) maintains shifted window sums
// instead of re-fitting from scratch. A Service batches every sensor onto
// one engine event per period (ObserveAll), so watching ten thousand
// resources costs the event queue no more than watching ten. The legacy
// copy+sort implementations are kept (legacy.go) as differential-test
// oracles: the incremental forecasters are pinned bit-identical to them
// (windowed AR(1): identical up to float re-association, ~1e-9 relative).
//
// Sensor history persists in one format, the crash-safe measurement
// store: WithStore appends every sample, and RestoreFromStore replays
// the recorded history into fresh banks before any resource is watched,
// reproducing forecasts and error state bit for bit.
package nws
