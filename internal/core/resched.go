package core

import (
	"apples/internal/grid"
	"apples/internal/jacobi"
	"apples/internal/obs"
	"apples/internal/partition"
)

// EstimatePlacement predicts the per-iteration time of an existing
// placement under the agent's *current* information — the quantity a
// rescheduling decision compares against a fresh schedule's prediction.
// The placement's worked hosts, in placement order, are set up as a
// pool of their own (they need not lie in the agent's) and priced
// through the same columns and feeder as a round.
func (a *Agent) EstimatePlacement(n int, p *partition.Placement) (float64, error) {
	var chain []*grid.Host
	for _, asg := range p.Assignments {
		if asg.Points == 0 {
			continue
		}
		if h := a.tp.Host(asg.Host); h != nil {
			chain = append(chain, h)
		}
	}
	m := a.model(n)
	hp := newHostPool(a.tp, &a.tpl.Tasks[0], a.spec, chain)
	cols := viewCols(hp, roundSnapshot(a.coord.info, chain), m.flopPerUnit)
	kn := kernelPool.Get().(*stripKernel)
	defer kernelPool.Put(kn)
	kn.reserve(len(chain))
	for i := range chain {
		kn.chain[i] = i
	}
	return kn.estimate(&m, cols, len(chain), a.tp, p)
}

// Rescheduler returns the redistribution policy of Section 3.2 as a
// jacobi.ReplanFunc: at each rescheduling point the agent re-runs its
// blueprint with fresh forecasts and accepts the new schedule only when
//
//   - the new predicted iteration time improves on the current
//     placement's by at least the hysteresis fraction (guarding against
//     thrashing on forecast noise), and
//   - the predicted savings over the remaining iterations exceed the
//     estimated cost of migrating the strip state.
//
// Each checkpoint runs a fresh Schedule, so the candidate sets are
// re-selected against the forecasts of the moment, and prices both the
// current and the fresh placement with EstimatePlacement, so the two
// are compared the same way. (The schedule's own PredictedIterTime
// prices each band's border exchange against its chain neighbours,
// zero-row hosts included; an estimate prices the bands' real
// neighbours.)
func (a *Agent) Rescheduler(n int, hysteresis float64) jacobi.ReplanFunc {
	if hysteresis <= 0 {
		hysteresis = 0.10
	}
	totalIters := max(a.tpl.Iterations, 1)
	bytesPerPoint := a.tpl.Tasks[0].BytesPerUnit

	// keep traces a rejected checkpoint; the nil tracer costs one check.
	keep := func(reason string, cur, freshIter, savings, migCost float64) *partition.Placement {
		if tr := a.coord.tracer; tr != nil {
			tr.Emit(obs.Event{Type: obs.EvReschedule, Verdict: "keep", Reason: reason,
				Current: cur, Fresh: freshIter, Savings: savings, MigCost: migCost})
		}
		return nil
	}

	return func(done int, current *partition.Placement) *partition.Placement {
		remaining := totalIters - done
		if remaining <= 0 {
			return nil
		}
		fresh, err := a.Schedule(n)
		if err != nil {
			return keep("no-fresh-schedule", 0, 0, 0, 0)
		}
		freshIter, err := a.EstimatePlacement(n, fresh.Placement)
		if err != nil {
			return keep("estimate-failed", 0, 0, 0, 0)
		}
		curIter, err := a.EstimatePlacement(n, current)
		if err != nil {
			return keep("estimate-failed", 0, freshIter, 0, 0)
		}
		if freshIter >= curIter*(1-hysteresis) {
			return keep("hysteresis", curIter, freshIter, 0, 0)
		}
		savings := (curIter - freshIter) * float64(remaining)
		migMB := jacobi.EstimateMigrationMB(current, fresh.Placement, bytesPerPoint)
		migCost := a.migrationCost(current, fresh.Placement, migMB)
		if savings <= migCost {
			return keep("migration-cost", curIter, freshIter, savings, migCost)
		}
		if tr := a.coord.tracer; tr != nil {
			tr.Emit(obs.Event{Type: obs.EvReschedule, Verdict: "migrate", Hosts: fresh.Hosts,
				Current: curIter, Fresh: freshIter, Savings: savings, MigCost: migCost})
		}
		return fresh.Placement
	}
}

// migrationCost estimates the seconds needed to move migMB between the
// placements' hosts, using the slowest forecast route among the affected
// pairs as the bottleneck.
func (a *Agent) migrationCost(oldP, newP *partition.Placement, migMB float64) float64 {
	if migMB <= 0 {
		return 0
	}
	// Affected hosts: anyone whose share changed.
	oldPts := map[string]int{}
	for _, asg := range oldP.Assignments {
		oldPts[asg.Host] = asg.Points
	}
	var shrank, grew []string
	seen := map[string]bool{}
	for _, asg := range newP.Assignments {
		seen[asg.Host] = true
		switch d := asg.Points - oldPts[asg.Host]; {
		case d > 0:
			grew = append(grew, asg.Host)
		case d < 0:
			shrank = append(shrank, asg.Host)
		}
	}
	for h := range oldPts {
		if !seen[h] && oldPts[h] > 0 {
			shrank = append(shrank, h)
		}
	}
	worstBW := 1e30
	for _, s := range shrank {
		for _, g := range grew {
			if bw := a.coord.Information().RouteBandwidth(s, g); bw < worstBW {
				worstBW = bw
			}
		}
	}
	if worstBW <= 0 || worstBW >= 1e30 {
		return 0
	}
	return migMB / worstBW
}
