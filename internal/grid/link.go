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

// transfer is a message in flight across a route of links. The network
// recycles it, with the timer that ends its latency phase, when it
// finishes, so a send allocates nothing once the free list has grown to
// the most messages ever in flight at once.
type transfer struct {
	route     []*Link
	remaining float64 // MB left in the byte phase
	rate      float64
	done      func()
	finished  bool
	latency   *sim.Timer // fires when the route's summed latency has elapsed
}

func (t *transfer) isFinished() bool { return t.finished }

// network owns all links and in-flight transfers of a topology and runs the
// shared fluid bandwidth model. Rates are recomputed globally at each
// arrival, completion, and cross-traffic change; with the handful of links
// in the paper's testbeds this is cheap and exact.
//
// Nothing outside the network holds a transfer, so it recycles them:
// a finished transfer returns to free just before its callback runs,
// and the next send reuses it with its latency timer. A busy link's
// cross-traffic wakeup is re-armed only when its deadline moves, or
// when the link goes busy or idle (armMoved).
type network struct {
	eng         *sim.Engine
	links       []*Link
	active      []*transfer // in the byte phase, in start order
	free        []*transfer // recycled, with their latency timers
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
func (n *network) send(route []*Link, sizeMB float64, done func()) {
	if len(route) == 0 {
		panic("grid: send with empty route")
	}
	var t *transfer
	if k := len(n.free); k > 0 {
		t, n.free = n.free[k-1], n.free[:k-1]
	} else {
		t = &transfer{}
		t.latency = n.eng.NewTimer(func() { n.start(t) })
	}
	t.route, t.remaining, t.rate, t.done, t.finished = route, sizeMB, 0, done, false
	lat := 0.0
	for _, l := range route {
		lat += l.Latency
	}
	t.latency.Arm(lat)
}

// finish recycles a finished transfer and then runs its callback, which
// may send again (and so reuse t).
func (n *network) finish(t *transfer) {
	done := t.done
	t.route, t.done = nil, nil
	n.free = append(n.free, t)
	if done != nil {
		done()
	}
}

// start moves a transfer whose latency has elapsed into the byte phase.
func (n *network) start(t *transfer) {
	if t.remaining <= workEpsilon {
		t.finished = true
		n.finish(t)
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
// fair share along its route, re-arms the next completion event, and
// keeps a cross-traffic wakeup armed on every busy link.
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
			armMoved(l.loadEv, math.Max(l.loadUntil, n.eng.Now()))
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
func (t *transfer) eta() float64 {
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
	var buf [8]*transfer // the done list stays on the stack in the common case
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
	n.active = slices.DeleteFunc(n.active, (*transfer).isFinished)
	n.reconfigureAll()
	for _, t := range done {
		n.finish(t)
	}
}

// armMoved arms tm for at unless it is already pending at exactly at.
// A wakeup whose deadline did not move keeps its sequence number, so
// re-running a reconfiguration costs no heap sift; DESIGN §17 argues
// that same-instant dispatch is unchanged.
func armMoved(tm *sim.Timer, at float64) {
	if !tm.Pending() || tm.Deadline() != at {
		tm.ArmAt(at)
	}
}
