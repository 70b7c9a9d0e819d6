package sim

// eventQueue is a binary min-heap of events ordered by (time, seq). The
// seq tie-break keeps same-instant events in FIFO order, which is what
// makes the engine deterministic. It is typed rather than built on
// container/heap, so no operation boxes an event into an interface, and
// it sifts by moving a hole instead of swapping.
type eventQueue []*Event

// before reports whether a fires ahead of b.
func before(a, b *Event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event {
	return q.remove(0)
}

// remove takes the event at heap position i out of the queue.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
		h[:n].fix(i)
	}
	h[n] = nil
	*q = h[:n]
	ev.index = -1
	return ev
}

// fix restores the heap order after the event at i changed its key.
func (q eventQueue) fix(i int) {
	if !q.down(i, len(q)) {
		q.up(i)
	}
}

func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at i toward the leaves of q[:n] and reports
// whether it moved.
func (q eventQueue) down(i, n int) bool {
	ev := q[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > i0
}
