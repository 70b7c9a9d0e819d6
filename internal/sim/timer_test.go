package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestTimerMatchesCancelSchedule drives two engines through the same
// random mix of timer re-arms, stops and one-shot events on an integer
// time grid, so many events share an instant. One engine uses Timers,
// the other Cancel followed by ScheduleAt; they must dispatch the same
// events in the same order at the same times.
func TestTimerMatchesCancelSchedule(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		const timers = 6
		var logA, logB []string
		a, b := NewEngine(), NewEngine()
		var ta [timers]*Timer
		var eb [timers]*Event
		for i := range ta {
			i := i
			ta[i] = a.NewTimer(func() { logA = append(logA, fmt.Sprintf("T%d@%v", i, a.Now())) })
		}
		fireB := func(i int) Handler {
			return func() { logB = append(logB, fmt.Sprintf("T%d@%v", i, b.Now())) }
		}
		r := rand.New(rand.NewSource(seed))
		shot := 0
		for round := 0; round < 60; round++ {
			for op := 0; op < 12; op++ {
				i, dt := r.Intn(timers), float64(r.Intn(4))
				switch r.Intn(3) {
				case 0:
					ta[i].ArmAt(a.Now() + dt)
					b.Cancel(eb[i])
					eb[i] = b.ScheduleAt(b.Now()+dt, fireB(i))
				case 1:
					if ta[i].Stop() != b.Cancel(eb[i]) {
						t.Fatalf("seed %d: Stop and Cancel disagree on timer %d", seed, i)
					}
				default:
					shot++
					s := shot
					a.Schedule(dt, func() { logA = append(logA, fmt.Sprintf("S%d@%v", s, a.Now())) })
					b.Schedule(dt, func() { logB = append(logB, fmt.Sprintf("S%d@%v", s, b.Now())) })
				}
			}
			if a.Pending() != b.Pending() {
				t.Fatalf("seed %d round %d: pending %d vs %d", seed, round, a.Pending(), b.Pending())
			}
			if err := a.RunUntil(a.Now() + 2); err != nil {
				t.Fatal(err)
			}
			if err := b.RunUntil(b.Now() + 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(logA, logB) {
			t.Fatalf("seed %d: timer engine dispatched\n%v\nreference dispatched\n%v", seed, logA, logB)
		}
		if a.Fired() != b.Fired() {
			t.Fatalf("seed %d: fired %d vs %d", seed, a.Fired(), b.Fired())
		}
	}
}

func TestTimerPendingStopAndRefire(t *testing.T) {
	e := NewEngine()
	n := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		n++
		if n < 3 {
			tm.Arm(1) // re-arm from its own handler
		}
	})
	if tm.Pending() || tm.Stop() {
		t.Fatal("fresh timer reports pending")
	}
	tm.Arm(5)
	tm.ArmAt(2) // replaces the wakeup at 5
	if !tm.Pending() || e.Pending() != 1 {
		t.Fatalf("armed timer: pending=%v queue=%d", tm.Pending(), e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 || e.Now() != 4 || tm.Pending() {
		t.Fatalf("fired %d times, clock %v, pending %v; want 3 times ending at 4", n, e.Now(), tm.Pending())
	}
	tm.Arm(1)
	if !tm.Stop() || tm.Pending() || e.Pending() != 0 {
		t.Fatal("Stop left the timer queued")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arming in the past did not panic")
		}
	}()
	tm.ArmAt(1)
}

// TestTimerAllocFree pins the point of Timer: re-arming, stopping and
// firing allocate nothing once the queue has grown.
func TestTimerAllocFree(t *testing.T) {
	e := NewEngine()
	fired := 0
	tms := make([]*Timer, 8)
	for i := range tms {
		tms[i] = e.NewTimer(func() { fired++ })
		tms[i].Arm(float64(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, tm := range tms {
			tm.Arm(float64(len(tms) - i))
		}
		tms[3].Stop()
		tms[5].ArmAt(e.Now())
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm and fire allocate %.1f objects/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no timer fired")
	}
}

// TestCancelProperty schedules events on a coarse time grid, cancels a
// random subset, and checks the survivors fire in (time, scheduling
// order) — the heap's removal must keep its order intact.
func TestCancelProperty(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			at float64
			id int
		}
		var want, got []rec
		var evs []*Event
		n := 1 + r.Intn(200)
		for id := 0; id < n; id++ {
			at := float64(r.Intn(20))
			id := id
			evs = append(evs, e.ScheduleAt(at, func() { got = append(got, rec{e.Now(), id}) }))
			want = append(want, rec{at, id})
		}
		for _, i := range r.Perm(n)[:r.Intn(n+1)] {
			if !e.Cancel(evs[i]) {
				t.Fatalf("seed %d: cancel of pending event %d failed", seed, i)
			}
			want[i].id = -1
		}
		want = slices.DeleteFunc(want, func(x rec) bool { return x.id < 0 })
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired %v, want %v", seed, got, want)
		}
	}
}
