//go:build !race

package core

// raceEnabled relaxes wall-clock budgets when the race detector's
// instrumentation (typically 5-10x slowdown) is active, and skips
// allocation ceilings, which it inflates (sync.Pool drops items at
// random under the detector).
const raceEnabled = false
