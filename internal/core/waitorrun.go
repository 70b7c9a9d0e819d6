package core

import (
	"fmt"
	"slices"

	"apples/internal/obs"
)

// DedicatedOffer describes a batch-queue style offer: after WaitSec of
// queue wait, the named hosts become dedicated to the application.
type DedicatedOffer struct {
	Hosts   []string
	WaitSec float64
}

// WaitOrRunDecision is the outcome of the Section 3.2 comparison: "the
// sum of the wait time and the dedicated time ... compared with a
// prediction of the slowdown the application will experience on
// non-dedicated resources."
type WaitOrRunDecision struct {
	// Wait is true when queueing for dedicated access is predicted
	// faster.
	Wait bool
	// SharedPredicted is the predicted total on the shared pool, now.
	SharedPredicted float64
	// DedicatedPredicted is wait + predicted total on the dedicated
	// hosts.
	DedicatedPredicted float64
	// Schedule is the one to actuate: the shared schedule when Wait is
	// false, the dedicated one when true.
	Schedule *Schedule
	// SharedSchedule and DedicatedSchedule expose both candidates.
	SharedSchedule, DedicatedSchedule *Schedule
}

// dedicatedInfo overrides availability to 1 for the offered hosts —
// they will be dedicated when the application runs.
type dedicatedInfo struct {
	Information
	hosts map[string]bool
}

func (d *dedicatedInfo) Availability(host string) float64 {
	if d.hosts[host] {
		return 1
	}
	return d.Information.Availability(host)
}

func (d *dedicatedInfo) Source() string { return d.Information.Source() + "+dedicated" }

// WaitOrRun evaluates a dedicated-access offer against running on the
// shared pool immediately and returns the user's best course.
func (a *Agent) WaitOrRun(n int, offer DedicatedOffer) (*WaitOrRunDecision, error) {
	if len(offer.Hosts) == 0 {
		return nil, fmt.Errorf("core: dedicated offer names no hosts")
	}
	if offer.WaitSec < 0 {
		return nil, fmt.Errorf("core: negative queue wait %v", offer.WaitSec)
	}
	dedSpec := *a.spec
	dedSpec.Accessible = append([]string(nil), offer.Hosts...)
	dedSpec.Excluded = nil
	hostSet := map[string]bool{}
	for _, h := range offer.Hosts {
		hostSet[h] = true
	}
	// Clone so the dedicated evaluation inherits the agent's full
	// configuration (spill factor, selector). Its pool is re-filtered,
	// so its pool columns are set up afresh: pool indices differ.
	dedAgent := a.clone()
	dedAgent.spec = &dedSpec
	dedAgent.hp = newHostPool(a.tp, &a.tpl.Tasks[0], &dedSpec, dedSpec.Filter(a.tp.Hosts()))

	// Both branches price against ONE frozen information view, resolved
	// over the hosts of the shared and the dedicated pool. This halves
	// the forecaster traffic (the old path built a full snapshot per
	// branch) and guarantees the comparison is internally consistent: the
	// shared and dedicated predictions cannot diverge because the source
	// moved between the two evaluations. Under the simulation's
	// stopped-clock scheduling the decisions are value-identical to the
	// two-snapshot path.
	snap := roundSnapshot(a.coord.info, append(slices.Clip(a.hp.hosts), dedAgent.hp.hosts...))

	sharedAgent := a.clone()
	sharedAgent.coord.info = snap
	shared, err := sharedAgent.Schedule(n)
	if err != nil {
		return nil, err
	}

	dedAgent.coord.info = &dedicatedInfo{Information: snap, hosts: hostSet}
	dedicated, err := dedAgent.Schedule(n)
	if err != nil {
		return nil, fmt.Errorf("core: dedicated offer unschedulable: %w", err)
	}

	dec := &WaitOrRunDecision{
		SharedPredicted:    shared.PredictedTotal,
		DedicatedPredicted: offer.WaitSec + dedicated.PredictedTotal,
		SharedSchedule:     shared,
		DedicatedSchedule:  dedicated,
	}
	if dec.DedicatedPredicted < dec.SharedPredicted {
		dec.Wait = true
		dec.Schedule = dedicated
	} else {
		dec.Schedule = shared
	}
	if tr := a.coord.tracer; tr != nil {
		verdict := "run"
		if dec.Wait {
			verdict = "wait"
		}
		tr.Emit(obs.Event{Type: obs.EvWaitOrRun, Verdict: verdict, Hosts: dec.Schedule.Hosts,
			Shared: dec.SharedPredicted, Dedicated: dec.DedicatedPredicted})
	}
	return dec, nil
}
