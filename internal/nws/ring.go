package nws

// ring is a fixed-capacity circular buffer of measurements. It is the
// backing store for every windowed forecaster in a bank: pushing into a
// full ring overwrites the oldest sample in place, so steady-state
// sensing never allocates and never shifts memory the way the old
// `buf = buf[1:]` append churn did.
//
// A ring also counts every sample ever pushed (total), which lets several
// forecasters with different window sizes share one ring: a forecaster
// with window k evicts back(k-1) — the k-th most recent sample — once
// total >= k, regardless of what larger window the ring itself retains.
type ring struct {
	data  []float64
	start int    // index of the oldest retained sample
	count int    // retained samples, <= cap
	total uint64 // samples ever pushed
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		panic("nws: ring capacity must be >= 1")
	}
	return &ring{data: make([]float64, capacity)}
}

// push appends v, overwriting the oldest retained sample when full.
func (r *ring) push(v float64) {
	if r.count < len(r.data) {
		r.data[(r.start+r.count)%len(r.data)] = v
		r.count++
	} else {
		r.data[r.start] = v
		r.start++
		if r.start == len(r.data) {
			r.start = 0
		}
	}
	r.total++
}

// back returns the i-th most recent sample; back(0) is the latest.
func (r *ring) back(i int) float64 {
	if i < 0 || i >= r.count {
		panic("nws: ring index out of window")
	}
	idx := r.start + r.count - 1 - i
	if idx >= len(r.data) {
		idx -= len(r.data)
	}
	return r.data[idx]
}

// len reports how many samples the ring currently retains.
func (r *ring) len() int { return r.count }
