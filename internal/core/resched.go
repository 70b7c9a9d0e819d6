package core

import (
	"fmt"

	"apples/internal/grid"
	"apples/internal/jacobi"
	"apples/internal/obs"
	"apples/internal/partition"
)

// EstimatePlacement predicts the per-iteration time of an existing
// placement under the agent's *current* information — the quantity a
// rescheduling decision compares against a fresh schedule's prediction.
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
	names := make([]string, len(chain))
	for i, h := range chain {
		names[i] = h.Name
	}
	m := a.model(n)
	kn := kernelPool.Get().(*stripKernel)
	defer kernelPool.Put(kn)
	if bad := kn.feedSet(&m, &a.tpl.Tasks[0], a.spec, a.coord.View(names), chain); bad >= 0 {
		return 0, fmt.Errorf("core: host %s has no deliverable speed", chain[bad].Name)
	}
	return kn.estimateAssignments(&m, a.tp, p), nil
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

	// The session freezes the candidate universe at the first checkpoint
	// and from then on re-scores only candidates whose metric bound can
	// still beat the previous winner, instead of rebuilding a full
	// snapshot and re-enumerating per checkpoint. Construction is
	// deferred so the pool
	// reflects run-time state; a construction failure is sticky and the
	// policy falls back to full blueprint rounds for the whole run.
	var (
		sess     *ReschedSession
		sessErr  error
		sessInit bool
	)

	return func(done int, current *partition.Placement) *partition.Placement {
		remaining := totalIters - done
		if remaining <= 0 {
			return nil
		}
		if !sessInit {
			sessInit = true
			sess, sessErr = a.NewReschedSession(n)
		}
		var (
			fresh *Schedule
			err   error
		)
		if sessErr == nil {
			fresh, _, err = sess.Round()
		} else {
			fresh, err = a.Schedule(n)
		}
		if err != nil {
			return keep("no-fresh-schedule", 0, 0, 0, 0)
		}
		var curIter float64
		if sessErr == nil {
			curIter, err = sess.EstimatePlacement(current)
		} else {
			curIter, err = a.EstimatePlacement(n, current)
		}
		if err != nil {
			return keep("estimate-failed", 0, fresh.PredictedIterTime, 0, 0)
		}
		if fresh.PredictedIterTime >= curIter*(1-hysteresis) {
			return keep("hysteresis", curIter, fresh.PredictedIterTime, 0, 0)
		}
		savings := (curIter - fresh.PredictedIterTime) * float64(remaining)
		migMB := jacobi.EstimateMigrationMB(current, fresh.Placement, bytesPerPoint)
		migCost := a.migrationCost(current, fresh.Placement, migMB)
		if savings <= migCost {
			return keep("migration-cost", curIter, fresh.PredictedIterTime, savings, migCost)
		}
		if tr := a.coord.tracer; tr != nil {
			tr.Emit(obs.Event{Type: obs.EvReschedule, Verdict: "migrate", Hosts: fresh.Hosts,
				Current: curIter, Fresh: fresh.PredictedIterTime, Savings: savings, MigCost: migCost})
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
