package grid

import (
	"math"
	"slices"

	"apples/internal/load"
	"apples/internal/sim"
)

// workEpsilon absorbs floating-point residue when deciding a task finished.
const workEpsilon = 1e-9

// Task is a compute job in flight on a host's CPU.
type Task struct {
	remaining float64 // Mflop left
	done      func()
	finished  bool
	cancelled bool
}

// Finished reports whether the task has completed.
func (t *Task) Finished() bool { return t.finished }

// cpu is the fluid processor-sharing model backing a Host. All running
// tasks and the ambient load divide the CPU equally; rates are recomputed
// at every arrival, completion, and load-change event.
//
// The ambient load source is sampled lazily: a load-change event is armed
// only while tasks are running, so an idle simulation drains instead of
// ticking forever.
type cpu struct {
	eng   *sim.Engine
	speed float64

	tasks []*Task // running, in submission order

	src       load.Source
	loadVal   float64
	loadUntil float64
	sampled   bool
	stalled   bool // the armed completion cannot advance the clock

	lastAdvance float64
	rate        float64 // per-task Mflop/s under the current configuration

	// Created at the first submit, so a host that only serves sensors
	// carries none.
	completion *sim.Timer
	loadChange *sim.Timer
}

func newCPU(eng *sim.Engine, speed float64, src load.Source) *cpu {
	return &cpu{eng: eng, speed: speed, src: src}
}

func (c *cpu) setLoad(src load.Source) {
	c.advance()
	c.src = src
	c.sampled = false
	c.refreshLoad()
	c.reconfigure()
}

// refreshLoad brings the cached load segment up to date with the clock.
func (c *cpu) refreshLoad() {
	now := c.eng.Now()
	if !c.sampled || now >= c.loadUntil {
		c.loadVal, c.loadUntil = c.src.Sample(now)
		c.sampled = true
	}
}

func (c *cpu) currentLoad() float64 {
	c.refreshLoad()
	return c.loadVal
}

func (c *cpu) onLoadChange() {
	c.advance()
	c.refreshLoad()
	c.reconfigure()
}

// advance applies progress at the current rate since lastAdvance.
func (c *cpu) advance() {
	now := c.eng.Now()
	dt := now - c.lastAdvance
	c.lastAdvance = now
	if dt <= 0 || c.rate <= 0 {
		return
	}
	for _, t := range c.tasks {
		t.remaining -= c.rate * dt
	}
}

// reconfigure recomputes the shared rate and re-arms the next completion.
// While tasks are running it keeps the next load-change wakeup armed,
// re-arming it only when its deadline moves or the CPU goes busy
// (armMoved); going idle stops it.
func (c *cpu) reconfigure() {
	k := len(c.tasks)
	if k == 0 {
		if c.completion != nil {
			c.completion.Stop()
			c.loadChange.Stop()
		}
		c.rate = 0
		return
	}
	c.refreshLoad()
	if math.IsInf(c.loadUntil, 1) {
		c.loadChange.Stop()
	} else {
		armMoved(c.loadChange, math.Max(c.loadUntil, c.eng.Now()))
	}
	c.rate = c.speed / (float64(k) + c.loadVal)
	if c.rate <= 0 {
		// Fully starved CPU: park until the load changes.
		c.completion.Stop()
		return
	}
	now := c.eng.Now()
	delay := math.Max(c.minRemaining(), 0) / c.rate
	c.stalled = now+delay == now
	c.completion.Arm(delay)
}

func (c *cpu) minRemaining() float64 {
	minRem := math.Inf(1)
	for _, t := range c.tasks {
		if t.remaining < minRem {
			minRem = t.remaining
		}
	}
	return minRem
}

// onCompletion retires every task whose work is done. A completion whose
// delay was below half an ulp of the clock cannot advance it, so no
// task's remaining work can shrink: if none is done, the minimum-
// remaining task or tasks finish, or the handler would re-arm at the
// same instant forever.
func (c *cpu) onCompletion() {
	c.advance()
	var buf [4]*Task // the done list stays on the stack in the common case
	done := buf[:0]
	for _, t := range c.tasks {
		if t.remaining <= workEpsilon {
			done = append(done, t)
		}
	}
	if len(done) == 0 && c.stalled {
		minRem := c.minRemaining()
		for _, t := range c.tasks {
			if t.remaining == minRem {
				done = append(done, t)
			}
		}
	}
	for _, t := range done {
		t.finished = true
	}
	c.tasks = slices.DeleteFunc(c.tasks, (*Task).Finished)
	c.reconfigure()
	// Callbacks run after the CPU is consistent so they can submit new work.
	for _, t := range done {
		if t.done != nil && !t.cancelled {
			t.done()
		}
	}
}

func (c *cpu) submit(work float64, done func()) *Task {
	t := &Task{remaining: work, done: done}
	c.advance()
	if work <= workEpsilon {
		// Degenerate zero-work task: complete on a fresh event to keep
		// callback ordering consistent.
		c.eng.Schedule(0, func() {
			t.finished = true
			if done != nil {
				done()
			}
		})
		return t
	}
	if c.completion == nil {
		c.completion = c.eng.NewTimer(c.onCompletion)
		c.loadChange = c.eng.NewTimer(c.onLoadChange)
	}
	c.tasks = append(c.tasks, t)
	c.reconfigure()
	return t
}

// cancel aborts a task; its callback will not fire.
func (c *cpu) cancel(t *Task) {
	if t.finished || t.cancelled {
		return
	}
	t.cancelled = true
	c.advance()
	if i := slices.Index(c.tasks, t); i >= 0 {
		c.tasks = slices.Delete(c.tasks, i, i+1)
	}
	c.reconfigure()
}
