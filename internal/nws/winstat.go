package nws

import "sort"

// orderedWindow is the order-statistics structure behind the sliding
// median and trimmed mean: the current window's samples maintained in
// ascending order inside a preallocated array (a sorted multiset over the
// ring). An update is a binary-search locate (O(log k)) plus a small
// in-place shift; order-statistic queries are O(1) and trimmed sums walk
// only the surviving middle of the window. Nothing allocates after
// construction, and — unlike a heap pair — the fully sorted window lets
// the trimmed mean accumulate its sum in ascending order, which keeps it
// bit-identical to the legacy copy+sort test oracle.
type orderedWindow struct {
	sorted []float64
}

func newOrderedWindow(k int) *orderedWindow {
	return &orderedWindow{sorted: make([]float64, 0, k)}
}

// insert adds v, keeping ascending order. The caller must remove an
// evicted sample first when the window is full; capacity is never grown.
func (w *orderedWindow) insert(v float64) {
	i := sort.SearchFloat64s(w.sorted, v)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = v
}

// remove deletes one instance of v, which must be present.
func (w *orderedWindow) remove(v float64) {
	i := sort.SearchFloat64s(w.sorted, v)
	if i >= len(w.sorted) || w.sorted[i] != v {
		panic("nws: orderedWindow.remove of absent value")
	}
	copy(w.sorted[i:], w.sorted[i+1:])
	w.sorted = w.sorted[:len(w.sorted)-1]
}

// median returns the window median (mean of the middle pair when even).
func (w *orderedWindow) median() float64 {
	n := len(w.sorted)
	if n%2 == 1 {
		return w.sorted[n/2]
	}
	return (w.sorted[n/2-1] + w.sorted[n/2]) / 2
}

// trimmedMean averages the window after dropping the trim largest and
// trim smallest samples (or nothing, while the window is still shorter
// than 2*trim+1). The sum runs in ascending order — the exact order the
// legacy implementation summed its sorted scratch copy — so results match
// it bit for bit.
func (w *orderedWindow) trimmedMean(trim int) float64 {
	lo, hi := 0, len(w.sorted)
	if len(w.sorted) > 2*trim {
		lo, hi = trim, len(w.sorted)-trim
	}
	sum := 0.0
	for _, v := range w.sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}
