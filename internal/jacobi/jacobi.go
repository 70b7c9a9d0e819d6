// Package jacobi executes a partitioned two-dimensional Jacobi iteration
// on the simulated metacomputer.
//
// This is the reproduction's stand-in for the paper's KeLP-actuated runs:
// instead of trusting the Planner's cost model, a placement is *executed* —
// every iteration each host computes its strip under whatever ambient load
// the testbed produces at that moment, then exchanges borders with its
// neighbors over the shared networks, with a global synchronization before
// the next sweep (Jacobi updates all points simultaneously, so the
// partitioning problem and the scheduling problem coincide, per Section 5).
//
// Hosts whose strip exceeds real memory pay a spill penalty on the excess
// fraction of their points — the "dramatic reduction in performance" that
// Figure 6 shows when the HPF partition outgrows the SP-2.
package jacobi

import (
	"fmt"
	"math"

	"apples/internal/grid"
	"apples/internal/partition"
)

// Config parameterizes a run. Zero values take the defaults noted below.
type Config struct {
	// Iterations is the number of synchronous sweeps (default 50).
	Iterations int
	// FlopPerPoint is the stencil cost per grid point (default 10).
	FlopPerPoint float64
	// BytesPerPoint is the resident state per point (default 16:
	// two float64 grids).
	BytesPerPoint float64
	// BorderBytesPerPoint is the exchange volume per boundary point
	// (default 8). Used only for reporting; placements carry their border
	// volumes already.
	BorderBytesPerPoint float64
	// SpillFactor multiplies the per-point cost of the out-of-memory
	// fraction of a strip (default 25).
	SpillFactor float64
}

func (c *Config) setDefaults() {
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.FlopPerPoint == 0 {
		c.FlopPerPoint = 10
	}
	if c.BytesPerPoint == 0 {
		c.BytesPerPoint = 16
	}
	if c.BorderBytesPerPoint == 0 {
		c.BorderBytesPerPoint = 8
	}
	if c.SpillFactor == 0 {
		c.SpillFactor = 25
	}
}

// Result reports a completed run.
type Result struct {
	// Time is total wall-clock (virtual) seconds for all iterations.
	Time float64
	// IterTimes is the duration of each sweep.
	IterTimes []float64
	// SpillFraction maps host -> fraction of its points that exceeded
	// real memory (0 for fully resident strips).
	SpillFraction map[string]float64
	// Hosts is the number of hosts that carried work.
	Hosts int
}

// MeanIterTime returns the average sweep duration.
func (r *Result) MeanIterTime() float64 {
	if len(r.IterTimes) == 0 {
		return 0
	}
	return r.Time / float64(len(r.IterTimes))
}

// MaxIterTime returns the slowest sweep.
func (r *Result) MaxIterTime() float64 {
	worst := 0.0
	for _, t := range r.IterTimes {
		if t > worst {
			worst = t
		}
	}
	return worst
}

// worker is one host's per-iteration work under a placement.
type worker struct {
	host   *grid.Host
	asg    partition.Assignment
	mflop  float64 // per-iteration compute including spill penalty
	spill  float64
	routes [][]*grid.Link // per border, resolved once per placement
	sends  int            // border sends still in flight this iteration

	computed, sent func() // completion callbacks, bound by newSweeper
}

// newWorkers binds a placement to hosts, computing per-iteration work,
// spill fractions, and each border's route.
func newWorkers(tp *grid.Topology, p *partition.Placement, cfg Config) ([]*worker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var workers []*worker
	for _, a := range p.Assignments {
		if a.Points == 0 {
			continue
		}
		h := tp.Host(a.Host)
		if h == nil {
			return nil, fmt.Errorf("jacobi: placement references unknown host %q", a.Host)
		}
		needMB := float64(a.Points) * cfg.BytesPerPoint / 1e6
		spill := 0.0
		if needMB > h.MemoryMB && needMB > 0 {
			spill = (needMB - h.MemoryMB) / needMB
		}
		mult := 1 + spill*(cfg.SpillFactor-1)
		w := &worker{
			host:   h,
			asg:    a,
			mflop:  float64(a.Points) * cfg.FlopPerPoint / 1e6 * mult,
			spill:  spill,
			routes: make([][]*grid.Link, len(a.Borders)),
		}
		for i, b := range a.Borders {
			if b.Peer == a.Host {
				continue // a local copy: the empty route
			}
			if w.routes[i] = tp.Route(a.Host, b.Peer); w.routes[i] == nil {
				return nil, fmt.Errorf("jacobi: no route from %q to %q", a.Host, b.Peer)
			}
		}
		workers = append(workers, w)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("jacobi: placement has no work")
	}
	return workers, nil
}

// sweeper runs synchronous iterations of one placement's workers: each
// host computes its strip, then exchanges borders with its neighbors,
// and done fires when the last border of the iteration lands (Jacobi
// updates all points simultaneously, so every sweep ends in a global
// synchronization). The callbacks are bound once per placement, so an
// iteration allocates only what the simulator itself needs.
type sweeper struct {
	workers     []*worker
	outstanding int // workers whose compute or borders are in flight
}

func newSweeper(tp *grid.Topology, workers []*worker, done func()) *sweeper {
	s := &sweeper{workers: workers}
	opDone := func() {
		s.outstanding--
		if s.outstanding == 0 {
			done()
		}
	}
	for _, w := range workers {
		w.sent = func() {
			w.sends--
			if w.sends == 0 {
				opDone()
			}
		}
		w.computed = func() {
			// Compute done: exchange borders. Each border edge sends
			// the strip boundary to the peer; the matching receive is
			// the peer's own send, so one send per edge direction.
			if len(w.asg.Borders) == 0 {
				opDone()
				return
			}
			w.sends = len(w.asg.Borders)
			for i, b := range w.asg.Borders {
				tp.SendRoute(w.routes[i], b.Bytes/1e6, w.sent)
			}
		}
	}
	return s
}

// begin starts one iteration.
func (s *sweeper) begin() {
	s.outstanding = len(s.workers)
	for _, w := range s.workers {
		w.host.Submit(w.mflop, w.computed)
	}
}

// Start begins executing the placement asynchronously: all events are
// scheduled on the topology's engine, and whenDone fires (with the
// completed result) when the last iteration's barrier clears. Start does
// not drive the engine, so several applications can execute concurrently
// on the same metacomputer — each experiencing the others as contention,
// exactly the setting Section 3 describes.
//
// Validation errors are returned synchronously; whenDone is then never
// called.
func Start(tp *grid.Topology, p *partition.Placement, cfg Config, whenDone func(*Result)) error {
	cfg.setDefaults()
	workers, err := newWorkers(tp, p, cfg)
	if err != nil {
		return err
	}

	eng := tp.Engine
	res := &Result{
		IterTimes:     make([]float64, 0, cfg.Iterations),
		SpillFraction: map[string]float64{},
		Hosts:         len(workers),
	}
	for _, w := range workers {
		res.SpillFraction[w.asg.Host] = w.spill
	}

	start := eng.Now()
	iterStart := start
	var s *sweeper
	s = newSweeper(tp, workers, func() {
		res.IterTimes = append(res.IterTimes, eng.Now()-iterStart)
		if len(res.IterTimes) >= cfg.Iterations {
			res.Time = eng.Now() - start
			whenDone(res)
			return
		}
		iterStart = eng.Now()
		s.begin()
	})
	s.begin()
	return nil
}

// Run executes the placement on the topology, driving the topology's
// engine until the run completes. It returns an error for invalid
// placements or unknown hosts.
func Run(tp *grid.Topology, p *partition.Placement, cfg Config) (*Result, error) {
	cfg.setDefaults()
	eng := tp.Engine
	var out *Result
	if err := Start(tp, p, cfg, func(r *Result) {
		out = r
		eng.Halt()
	}); err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("jacobi: run stalled (t=%v)", eng.Now())
	}
	if math.IsNaN(out.Time) || out.Time < 0 {
		return nil, fmt.Errorf("jacobi: invalid total time %v", out.Time)
	}
	return out, nil
}
