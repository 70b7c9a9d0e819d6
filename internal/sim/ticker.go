package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// NWS sensors and load generators use it for periodic sampling.
type Ticker struct {
	eng    *Engine
	period float64
	fn     func(now float64)
	timer  *Timer
	stop   bool
	ticks  uint64
	max    uint64 // 0 = unbounded
}

// NewTicker schedules fn every period seconds starting period seconds from
// now. period must be positive.
func NewTicker(eng *Engine, period float64, fn func(now float64)) *Ticker {
	if period <= 0 {
		panic("sim: Ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.timer = eng.NewTimer(t.fire)
	t.timer.Arm(period)
	return t
}

// NewTickerN is NewTicker limited to max firings.
func NewTickerN(eng *Engine, period float64, max uint64, fn func(now float64)) *Ticker {
	t := NewTicker(eng, period, fn)
	t.max = max
	return t
}

func (t *Ticker) fire() {
	if t.stop {
		return
	}
	t.ticks++
	t.fn(t.eng.Now())
	if t.stop || (t.max > 0 && t.ticks >= t.max) {
		return
	}
	t.timer.Arm(t.period)
}

// Stop prevents any further firings.
func (t *Ticker) Stop() {
	t.stop = true
	t.timer.Stop()
}

// Ticks reports how many times the callback has fired.
func (t *Ticker) Ticks() uint64 { return t.ticks }

// BatchTicker fans one periodic timer event out to many callbacks:
// registering another callback costs no additional engine events, so a
// service watching thousands of resources schedules O(1) heap events per
// period instead of O(resources). Callbacks run in registration order,
// which keeps simulations deterministic.
type BatchTicker struct {
	t      *Ticker
	fns    []func(now float64)
	around func(fire func(now float64), now float64)
}

// NewBatchTicker schedules the batch every period seconds starting period
// seconds from now. period must be positive.
func NewBatchTicker(eng *Engine, period float64) *BatchTicker {
	b := &BatchTicker{}
	b.t = NewTicker(eng, period, b.Fire)
	return b
}

// Add registers a callback on the shared cadence. A callback added
// mid-flight first runs at the next batch tick.
func (b *BatchTicker) Add(fn func(now float64)) { b.fns = append(b.fns, fn) }

// SetAround installs a wrapper invoked around every Fire — timer-driven
// or direct — with the sweep closure to run. It must call fire exactly
// once; observability layers use it to time a whole sweep without
// paying a per-callback hook. nil removes the wrapper.
func (b *BatchTicker) SetAround(around func(fire func(now float64), now float64)) {
	b.around = around
}

// Fire invokes every registered callback once, in registration order. The
// ticker calls it on each period; tests and benchmarks may call it
// directly to drive a sweep without advancing the clock.
func (b *BatchTicker) Fire(now float64) {
	if b.around != nil {
		b.around(b.fireAll, now)
		return
	}
	b.fireAll(now)
}

func (b *BatchTicker) fireAll(now float64) {
	for _, fn := range b.fns {
		fn(now)
	}
}

// Len reports how many callbacks are registered.
func (b *BatchTicker) Len() int { return len(b.fns) }

// Ticks reports how many times the batch has fired on the timer.
func (b *BatchTicker) Ticks() uint64 { return b.t.Ticks() }

// Stop prevents any further timer firings.
func (b *BatchTicker) Stop() { b.t.Stop() }
