package sim

import (
	"errors"
	"fmt"
	"math"

	"apples/internal/obs"
)

// Handler is the callback invoked when an event fires. It runs with the
// engine clock set to the event's time.
type Handler func()

// Event is a scheduled callback. It is returned by Schedule/ScheduleAt so
// callers can cancel it before it fires.
type Event struct {
	time    float64
	seq     uint64 // FIFO tie-breaker for simultaneous events
	index   int    // position in the heap, -1 when not queued
	handler Handler
}

// Time returns the virtual time at which the event fires (or fired).
func (e *Event) Time() float64 { return e.time }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	queue  eventQueue
	fired  uint64
	limit  uint64 // safety cap on total events; 0 means none
	halted bool
	events *obs.Counter // sim_events_total; nil when metrics are off
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// SetEventLimit installs a safety cap on the total number of dispatched
// events. Run returns ErrEventLimit once the cap is exceeded. Zero disables
// the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetMetrics registers the engine's sim_events_total counter in the
// registry, incremented once per dispatched event. A nil registry turns
// the instrumentation off again (the default: one nil check per Step).
func (e *Engine) SetMetrics(m *obs.Metrics) {
	if m == nil {
		e.events = nil
		return
	}
	e.events = m.Counter(obs.MetricSimEvents)
}

// ErrEventLimit is returned by Run when the engine's event cap is hit. It
// almost always indicates a scheduling loop in the model.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Schedule queues fn to run delay seconds from now. A negative or NaN delay
// panics: the model attempted to schedule into the past.
func (e *Engine) Schedule(delay float64, fn Handler) *Event {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Scheduling before
// the current time panics.
func (e *Engine) ScheduleAt(t float64, fn Handler) *Event {
	ev := &Event{index: -1}
	e.enqueue(ev, t, fn)
	return ev
}

// enqueue queues ev to run fn at t with the next sequence number. An
// event already queued is re-keyed in place: the heap's order is total
// on (time, seq), so that dispatches exactly as Cancel then ScheduleAt.
func (e *Engine) enqueue(ev *Event, t float64, fn Handler) {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt %v before now %v", t, e.now))
	}
	ev.time, ev.seq, ev.handler = t, e.seq, fn
	e.seq++
	if ev.index >= 0 {
		e.queue.fix(ev.index)
	} else {
		e.queue.push(ev)
	}
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired or was cancelled).
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	e.queue.remove(ev.index)
	ev.handler = nil
	return true
}

// Reschedule cancels ev (if pending) and schedules its handler delay seconds
// from now, returning the new event. The old pointer becomes invalid.
func (e *Engine) Reschedule(ev *Event, delay float64) *Event {
	h := ev.handler
	e.Cancel(ev)
	if h == nil {
		panic("sim: Reschedule of fired event")
	}
	return e.Schedule(delay, h)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its time. It reports false when no events are pending.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.time
	e.fired++
	if e.events != nil {
		e.events.Inc()
	}
	h := ev.handler
	ev.handler = nil
	h()
	return true
}

// Run dispatches events until the queue drains or Halt is called. It returns
// ErrEventLimit if the safety cap is exceeded.
func (e *Engine) Run() error {
	return e.RunUntil(math.Inf(1))
}

// RunUntil dispatches events with time <= horizon. Events beyond the horizon
// stay queued; the clock is advanced to the horizon if the run was not
// halted early and the horizon is finite.
func (e *Engine) RunUntil(horizon float64) error {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		if e.queue[0].time > horizon {
			break
		}
		if e.limit > 0 && e.fired >= e.limit {
			return ErrEventLimit
		}
		e.Step()
	}
	if !e.halted && !math.IsInf(horizon, 1) && horizon > e.now {
		e.now = horizon
	}
	return nil
}

// Halt stops Run/RunUntil after the currently dispatching event returns.
func (e *Engine) Halt() { e.halted = true }

// Timer is a reusable event for a model component that keeps at most
// one wakeup of a kind pending: a CPU's next completion, a link's next
// cross-traffic change. Arming it is exactly Cancel followed by
// ScheduleAt — the wakeup takes a fresh sequence number, so same-instant
// FIFO order is as if a new event had been scheduled — but the event is
// reused, so re-arming allocates nothing.
type Timer struct {
	eng *Engine
	fn  Handler
	ev  Event
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Engine) NewTimer(fn Handler) *Timer {
	return &Timer{eng: e, fn: fn, ev: Event{index: -1}}
}

// ArmAt (re)schedules the timer for absolute virtual time at, replacing
// any pending wakeup. Arming before the current time panics.
func (t *Timer) ArmAt(at float64) { t.eng.enqueue(&t.ev, at, t.fn) }

// Arm (re)schedules the timer delay seconds from now. A negative or NaN
// delay panics.
func (t *Timer) Arm(delay float64) {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("sim: Timer.Arm with invalid delay %v at t=%v", delay, t.eng.now))
	}
	t.ArmAt(t.eng.now + delay)
}

// Stop cancels the pending wakeup, reporting whether there was one.
func (t *Timer) Stop() bool { return t.eng.Cancel(&t.ev) }

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.ev.index >= 0 }

// Deadline returns the virtual time the timer was last armed for: while
// it is Pending, the instant its wakeup fires.
func (t *Timer) Deadline() float64 { return t.ev.time }
