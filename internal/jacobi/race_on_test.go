//go:build race

package jacobi

// raceEnabled skips allocation gates when the race detector's
// instrumentation inflates allocation counts.
const raceEnabled = true
