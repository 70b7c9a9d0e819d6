package jacobi

import (
	"fmt"

	"apples/internal/grid"
	"apples/internal/partition"
)

// ReplanFunc is consulted at rescheduling points of an adaptive run. It
// receives the number of completed iterations and the current placement,
// and returns a replacement placement, or nil to keep the current one.
// The paper motivates this hook in Section 3.2: dynamic information
// serves both the initial schedule and "decisions about redistribution of
// the application during execution".
type ReplanFunc func(iterationsDone int, current *partition.Placement) *partition.Placement

// AdaptiveConfig extends Config with rescheduling points.
type AdaptiveConfig struct {
	Config
	// CheckEvery is the iteration period between replanning opportunities
	// (default 10).
	CheckEvery int
	// Replan is consulted at each opportunity; nil disables adaptation
	// (the run degenerates to Run).
	Replan ReplanFunc
}

// AdaptiveResult extends Result with redistribution accounting.
type AdaptiveResult struct {
	Result
	// Replans counts accepted redistributions.
	Replans int
	// MigratedMB is the total strip state moved between hosts.
	MigratedMB float64
	// MigrationSec is wall-clock time spent in migration phases.
	MigrationSec float64
}

// RunAdaptive executes the placement like Run, but pauses every
// CheckEvery iterations to consult Replan. An accepted replacement
// triggers a migration phase: the strip state that changes owners is
// shipped over the (contended) network before iteration resumes, so
// redistribution pays its true cost.
func RunAdaptive(tp *grid.Topology, p *partition.Placement, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	cfg.setDefaults()
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 10
	}
	workers, err := newWorkers(tp, p, cfg.Config)
	if err != nil {
		return nil, err
	}

	eng := tp.Engine
	res := &AdaptiveResult{}
	res.SpillFraction = map[string]float64{}
	current := p

	refreshSpill := func() {
		for _, w := range workers {
			if w.spill > res.SpillFraction[w.asg.Host] {
				res.SpillFraction[w.asg.Host] = w.spill
			}
		}
		if len(workers) > res.Hosts {
			res.Hosts = len(workers)
		}
	}
	refreshSpill()

	start := eng.Now()
	iterStart := start
	iter := 0
	var runErr error

	var s *sweeper
	var beginIteration func()
	var afterIteration func()

	iterationDone := func() {
		res.IterTimes = append(res.IterTimes, eng.Now()-iterStart)
		iter++
		if iter >= cfg.Iterations {
			res.Time = eng.Now() - start
			eng.Halt()
			return
		}
		afterIteration()
	}
	s = newSweeper(tp, workers, iterationDone)

	// afterIteration decides whether this is a rescheduling point and, if
	// a new placement is accepted, runs the migration phase before the
	// next sweep.
	afterIteration = func() {
		if cfg.Replan == nil || iter%cfg.CheckEvery != 0 {
			beginIteration()
			return
		}
		next := cfg.Replan(iter, current)
		if next == nil {
			beginIteration()
			return
		}
		newWorkersList, err := newWorkers(tp, next, cfg.Config)
		if err != nil {
			runErr = fmt.Errorf("jacobi: replacement placement rejected: %w", err)
			eng.Halt()
			return
		}
		moves := migrationPlan(current, next, cfg.BytesPerPoint)
		res.Replans++
		current = next
		workers = newWorkersList
		s = newSweeper(tp, workers, iterationDone)
		refreshSpill()
		if len(moves) == 0 {
			beginIteration()
			return
		}
		migStart := eng.Now()
		pending := len(moves)
		for _, m := range moves {
			res.MigratedMB += m.sizeMB
			tp.Send(m.from, m.to, m.sizeMB, func() {
				pending--
				if pending == 0 {
					res.MigrationSec += eng.Now() - migStart
					beginIteration()
				}
			})
		}
	}

	beginIteration = func() {
		iterStart = eng.Now()
		s.begin()
	}

	beginIteration()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if iter < cfg.Iterations {
		return nil, fmt.Errorf("jacobi: adaptive run stalled at iteration %d/%d", iter, cfg.Iterations)
	}
	return res, nil
}

// EstimateMigrationMB returns the megabytes of strip state that switching
// from oldP to newP would move between hosts — the quantity a rescheduler
// weighs against the predicted savings.
func EstimateMigrationMB(oldP, newP *partition.Placement, bytesPerPoint float64) float64 {
	total := 0.0
	for _, m := range migrationPlan(oldP, newP, bytesPerPoint) {
		total += m.sizeMB
	}
	return total
}

// migration is one bulk state transfer between hosts.
type migration struct {
	from, to string
	sizeMB   float64
}

// migrationPlan pairs hosts that shrank with hosts that grew and ships
// the difference: a fluid approximation of row migration in which every
// surplus point moves exactly once.
func migrationPlan(oldP, newP *partition.Placement, bytesPerPoint float64) []migration {
	oldPts := map[string]int{}
	for _, a := range oldP.Assignments {
		oldPts[a.Host] = a.Points
	}
	newPts := map[string]int{}
	for _, a := range newP.Assignments {
		newPts[a.Host] = a.Points
	}
	type delta struct {
		host string
		pts  int
	}
	var sources, sinks []delta
	seen := map[string]bool{}
	for _, a := range oldP.Assignments {
		seen[a.Host] = true
		d := newPts[a.Host] - a.Points
		if d < 0 {
			sources = append(sources, delta{a.Host, -d})
		} else if d > 0 {
			sinks = append(sinks, delta{a.Host, d})
		}
	}
	for _, a := range newP.Assignments {
		if !seen[a.Host] && a.Points > 0 {
			sinks = append(sinks, delta{a.Host, a.Points})
		}
	}

	var moves []migration
	si := 0
	for _, src := range sources {
		rem := src.pts
		for rem > 0 && si < len(sinks) {
			take := rem
			if take > sinks[si].pts {
				take = sinks[si].pts
			}
			if take > 0 {
				moves = append(moves, migration{
					from:   src.host,
					to:     sinks[si].host,
					sizeMB: float64(take) * bytesPerPoint / 1e6,
				})
			}
			rem -= take
			sinks[si].pts -= take
			if sinks[si].pts == 0 {
				si++
			}
		}
	}
	return moves
}
