package grid

import (
	"math"
	"slices"

	"apples/internal/load"
	"apples/internal/sim"
)

// Link is one shared network segment or point-to-point channel: an ethernet
// segment, an FDDI ring, a WAN circuit. Transfers crossing it divide its
// bandwidth with each other and with ambient cross traffic.
//
// Cross traffic is sampled lazily and its change events are armed only
// while the link carries transfers, so idle simulations drain.
type Link struct {
	Name      string
	Latency   float64 // seconds, one-way, per message
	Bandwidth float64 // MB/s when fully dedicated
	Dedicated bool

	index     int // position in Topology.Links(), assigned by Finalize
	net       *network
	transfers int // in the byte phase across this link

	src       load.Source
	loadVal   float64 // cross traffic expressed in "equivalent streams"
	loadUntil float64
	sampled   bool
	loadEv    *sim.Timer
}

// Index returns the link's position in its topology's Links(), a dense
// index for per-link arrays. It is 0 for every link before Finalize.
func (l *Link) Index() int { return l.index }

// String returns the link name.
func (l *Link) String() string { return l.Name }

// CurrentCrossTraffic returns the ambient competing-stream count now.
func (l *Link) CurrentCrossTraffic() float64 {
	l.refreshLoad()
	return l.loadVal
}

// AvailableBandwidth returns the MB/s a single new transfer would get right
// now, given cross traffic and transfers already in flight. This is the
// quantity NWS bandwidth sensors measure.
func (l *Link) AvailableBandwidth() float64 {
	l.refreshLoad()
	return l.Bandwidth / (1 + l.loadVal + float64(l.transfers))
}

// SetCrossTraffic replaces the link's ambient traffic source.
func (l *Link) SetCrossTraffic(src load.Source) {
	l.net.advanceAll()
	l.src = src
	l.sampled = false
	l.refreshLoad()
	l.net.reconfigureAll()
}

func (l *Link) refreshLoad() {
	now := l.net.eng.Now()
	if !l.sampled || now >= l.loadUntil {
		l.loadVal, l.loadUntil = l.src.Sample(now)
		l.sampled = true
	}
}

// Transfer is a message in flight across a route of links.
type Transfer struct {
	route     []*Link
	remaining float64 // MB left in the byte phase
	rate      float64
	done      func()
	finished  bool
}

// Finished reports whether the transfer completed.
func (t *Transfer) Finished() bool { return t.finished }

// network owns all links and in-flight transfers of a topology and runs the
// shared fluid bandwidth model. Rates are recomputed globally at each
// arrival, completion, and cross-traffic change; with the handful of links
// in the paper's testbeds this is cheap and exact.
type network struct {
	eng         *sim.Engine
	links       []*Link
	active      []*Transfer    // in the byte phase, in start order
	idle        []*latencyWait // pooled latency-phase wakeups
	lastAdvance float64
	completion  *sim.Timer
	stalled     bool // the armed completion cannot advance the clock
}

func newNetwork(eng *sim.Engine) *network {
	n := &network{eng: eng}
	n.completion = eng.NewTimer(n.onCompletion)
	return n
}

func (n *network) addLink(l *Link) {
	l.net = n
	l.loadEv = n.eng.NewTimer(func() {
		n.advanceAll()
		l.refreshLoad()
		n.reconfigureAll()
	})
	if l.src == nil {
		l.src = load.Constant(0)
	}
	n.links = append(n.links, l)
}

// send starts a transfer of sizeMB along route; done fires on completion.
// The message first pays the route's summed latency, then streams its bytes
// through the fluid bandwidth model.
func (n *network) send(route []*Link, sizeMB float64, done func()) *Transfer {
	if len(route) == 0 {
		panic("grid: send with empty route")
	}
	t := &Transfer{route: route, remaining: sizeMB, done: done}
	lat := 0.0
	for _, l := range route {
		lat += l.Latency
	}
	var w *latencyWait
	if k := len(n.idle); k > 0 {
		w, n.idle = n.idle[k-1], n.idle[:k-1]
	} else {
		w = &latencyWait{}
		w.timer = n.eng.NewTimer(func() {
			t := w.t
			w.t = nil
			n.idle = append(n.idle, w)
			n.start(t)
		})
	}
	w.t = t
	w.timer.Arm(lat)
	return t
}

// latencyWait is the wakeup ending one transfer's latency phase. The
// network pools them, so a send allocates only its Transfer.
type latencyWait struct {
	timer *sim.Timer
	t     *Transfer
}

// start moves a transfer whose latency has elapsed into the byte phase.
func (n *network) start(t *Transfer) {
	if t.remaining <= workEpsilon {
		t.finished = true
		if t.done != nil {
			t.done()
		}
		return
	}
	n.advanceAll()
	n.active = append(n.active, t)
	for _, l := range t.route {
		l.transfers++
	}
	n.reconfigureAll()
}

// advanceAll applies progress to every active transfer at its current rate.
func (n *network) advanceAll() {
	now := n.eng.Now()
	dt := now - n.lastAdvance
	n.lastAdvance = now
	if dt <= 0 {
		return
	}
	for _, t := range n.active {
		t.remaining -= t.rate * dt
	}
}

// reconfigureAll recomputes each transfer's rate as the minimum per-link
// fair share along its route, re-arms the next completion event, and arms
// cross-traffic wakeups on every busy link.
func (n *network) reconfigureAll() {
	for _, l := range n.links {
		if l.transfers == 0 {
			l.loadEv.Stop()
			continue
		}
		l.refreshLoad()
		if math.IsInf(l.loadUntil, 1) {
			l.loadEv.Stop()
		} else {
			l.loadEv.ArmAt(math.Max(l.loadUntil, n.eng.Now()))
		}
	}
	minETA := math.Inf(1)
	for _, t := range n.active {
		rate := math.Inf(1)
		for _, l := range t.route {
			share := l.Bandwidth / (float64(l.transfers) + l.loadVal)
			if share < rate {
				rate = share
			}
		}
		t.rate = rate
		if eta := t.eta(); eta < minETA {
			minETA = eta
		}
	}
	if math.IsInf(minETA, 1) {
		// Idle, or all routes starved: wait for a cross-traffic change.
		n.completion.Stop()
		return
	}
	now := n.eng.Now()
	n.stalled = now+minETA == now
	n.completion.Arm(minETA)
}

// eta is the time the transfer needs at its current rate, +Inf when its
// route is starved.
func (t *Transfer) eta() float64 {
	if t.rate > 0 {
		return math.Max(t.remaining, 0) / t.rate
	}
	return math.Inf(1)
}

// onCompletion retires every transfer whose bytes are through. As in
// the CPU model, a completion whose delay was below half an ulp of the
// clock cannot advance it: if no transfer is done, the ones with the
// minimum time to go finish, or the handler would re-arm at the same
// instant forever.
func (n *network) onCompletion() {
	n.advanceAll()
	var buf [8]*Transfer // the done list stays on the stack in the common case
	done := buf[:0]
	for _, t := range n.active {
		if t.remaining <= workEpsilon {
			done = append(done, t)
		}
	}
	if len(done) == 0 && n.stalled {
		minETA := math.Inf(1)
		for _, t := range n.active {
			minETA = math.Min(minETA, t.eta())
		}
		for _, t := range n.active {
			if t.eta() == minETA {
				done = append(done, t)
			}
		}
	}
	for _, t := range done {
		t.finished = true
		for _, l := range t.route {
			l.transfers--
		}
	}
	n.active = slices.DeleteFunc(n.active, (*Transfer).Finished)
	n.reconfigureAll()
	for _, t := range done {
		if t.done != nil {
			t.done()
		}
	}
}
