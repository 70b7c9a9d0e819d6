package grid

import (
	"math"
	"testing"

	"apples/internal/sim"
)

// stallClock is a simulated time just past 2^18 s, where the clock's
// ulp is 2^-34 s: a completion delay below 2^-35 s cannot advance it.
// A fig2-round run on the SDSC/PCL testbed reached it at op 10,197
// with a task 1.105e-9 Mflop from done.
const stallClock = 262225.11021297349

// stalledWork is above workEpsilon, yet at 40 Mflop/s (or MB/s) it
// takes 2.76e-11 s, less than half an ulp of stallClock.
const stalledWork = 1.105e-9

func stallEngine(t *testing.T) *sim.Engine {
	t.Helper()
	eng := sim.NewEngine()
	if err := eng.RunUntil(stallClock); err != nil {
		t.Fatal(err)
	}
	if d := stalledWork / 40; eng.Now()+d != eng.Now() || stalledWork <= workEpsilon {
		t.Fatalf("delay %v advances the clock at %v: the case is not reproduced", d, eng.Now())
	}
	eng.SetEventLimit(1000)
	return eng
}

// TestCPUCompletionBelowClockResolution: a task whose completion delay
// cannot advance the clock finishes at that instant instead of
// re-arming its completion forever.
func TestCPUCompletionBelowClockResolution(t *testing.T) {
	eng := stallEngine(t)
	h := testHost(eng, 40, nil)
	doneAt := math.NaN()
	task := h.Submit(stalledWork, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatalf("%v after %d events", err, eng.Fired())
	}
	if !task.Finished() || doneAt != stallClock || h.RunningTasks() != 0 {
		t.Fatalf("stalled task finished=%v at %v, want at %v", task.Finished(), doneAt, stallClock)
	}
}

// TestLinkCompletionBelowClockResolution is the same case for a
// transfer in the fluid network model.
func TestLinkCompletionBelowClockResolution(t *testing.T) {
	eng := stallEngine(t)
	tp := pairTopology(eng, 0, 40, nil)
	doneAt := math.NaN()
	tp.Send("a", "b", stalledWork, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatalf("%v after %d events", err, eng.Fired())
	}
	if doneAt != stallClock {
		t.Fatalf("stalled transfer finished at %v, want at %v", doneAt, stallClock)
	}
}
