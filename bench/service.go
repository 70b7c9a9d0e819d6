package main

import (
	"fmt"
	"sync"
	"time"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/nws"
	"apples/internal/sim"
)

const (
	serviceTenants = 64
	serviceN       = 600
	// serviceRate is the fixed offered load. There is no search for the
	// highest rate that meets a latency limit: on two cores the tail at
	// 600-800 rounds/s moved by an order of magnitude between runs, so a
	// saturation point would not repeat. At 300 rounds/s the service kept
	// about 1.4 of the 2 cores busy, and when the shared machine slowed,
	// queues built and p50 tripled; 150 rounds/s stays clear of that.
	serviceRate = 150
	// invalidateEvery stands in for a new NWS epoch: every snapshot the
	// service shares is retired this often.
	invalidateEvery = 100 * time.Millisecond
)

// clock is the open-loop generator's time source: time since the
// generator started, and a way to wait for a point in that time.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// pace is the open-loop generator: it calls send for requests 0..n-1,
// each at its due time k*interval, and never waits for a reply. When a
// send stalls, later requests go out late but keep their due times, so
// a latency measured from the due time counts the stall against every
// request it delayed.
func pace(c clock, n int, interval time.Duration, send func(k int, due time.Duration)) {
	for k := 0; k < n; k++ {
		due := time.Duration(k) * interval
		c.sleepUntil(due)
		send(k, due)
	}
}

// request is one open-loop request's record, all times on the
// generator's clock.
type request struct {
	due, sent, done time.Duration
	res             core.RoundResult
	err             error // the Submit error, when admission refused it
}

// serviceRun drives a SchedService of serviceTenants agents sharing one
// NWS-warmed 3x4 pool; every eighth tenant selects exhaustively, the
// rest greedily.
type serviceRun struct {
	svc     *core.SchedService
	tenants []*core.Tenant
	pool    map[string]bool
	next    int // index of the next request
}

func buildService(seed int64, in *instruments, _ string) (runner, error) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 3, PerCluster: 4, Seed: seed})
	nwsSvc := nws.NewService(eng, nwsPeriod)
	nwsSvc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, err
	}
	nwsSvc.Stop()
	info := core.NWSInformation(nwsSvc, tp)

	s := &serviceRun{svc: core.NewSchedService(), pool: hostSet(tp)}
	for k := 0; k < serviceTenants; k++ {
		var opts []core.AgentOption
		if !exhaustiveTenant(k) {
			opts = append(opts, core.WithSelector(core.SelectorSpec{Kind: core.SelectorGreedy}))
		}
		agent, err := core.NewAgent(tp, hat.Jacobi2D(serviceN, 40), strip, info, agentOpts(in, opts...)...)
		if err != nil {
			s.close()
			return nil, err
		}
		t, err := s.svc.Register(fmt.Sprintf("t%d", k), agent)
		if err != nil {
			s.close()
			return nil, err
		}
		s.tenants = append(s.tenants, t)
	}
	// One round per tenant, so tenant-side lazy set-up is not timed.
	for _, t := range s.tenants {
		if _, err := t.Schedule(serviceN); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func exhaustiveTenant(k int) bool { return k%8 == 0 }

func (s *serviceRun) close() error {
	s.svc.Close()
	return nil
}

// run offers serviceRate requests per second for d (and at least until
// request minOps), round-robin over the tenants, then waits for every
// reply. One collector goroutine per tenant receives that tenant's
// replies, which the service delivers in submission order.
func (s *serviceRun) run(d time.Duration, minOps int, ph *phase, tr *tracer) error {
	n := max(int(d.Seconds()*serviceRate), minOps-s.next)
	if n <= 0 {
		return nil
	}
	base := s.next
	s.next += n
	reqs := make([]request, n)

	type pending struct {
		k  int
		ch <-chan core.RoundResult
	}
	queues := make([]chan pending, len(s.tenants))
	c := wallClock{start: time.Now()}
	var wg sync.WaitGroup
	for q := range queues {
		// Sized to every request the tenant can get, so the generator
		// never blocks on a collector.
		queues[q] = make(chan pending, n/len(s.tenants)+1)
		wg.Add(1)
		go func(q chan pending) {
			defer wg.Done()
			for p := range q {
				res := <-p.ch
				reqs[p.k].done = c.now()
				reqs[p.k].res = res
			}
		}(queues[q])
	}

	var objs float64
	if tr != nil {
		objs, _ = tr.heapAllocs()
	}
	depthMax, lastInvalidate := 0, time.Duration(0)
	pace(c, n, time.Second/serviceRate, func(k int, due time.Duration) {
		r := &reqs[k]
		r.due, r.sent = due, c.now()
		if r.sent-lastInvalidate >= invalidateEvery {
			s.svc.InvalidateSnapshots()
			lastInvalidate = r.sent
		}
		depthMax = max(depthMax, s.svc.QueueDepth())
		t := (base + k) % len(s.tenants)
		ch, err := s.tenants[t].Submit(serviceN)
		if err != nil {
			r.err, r.done = err, r.sent
			return
		}
		queues[t] <- pending{k: k, ch: ch}
	})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	ph.elapsed += c.now()

	var runStart float64
	if tr != nil {
		objs2, _ := tr.heapAllocs()
		tr.add("core.allocs", objs2-objs)
		tr.counts["service.queue_depth_max"] = max(tr.counts["service.queue_depth_max"], float64(depthMax))
		runStart = ms(c.start.Sub(tr.base))
	}
	for k := range reqs {
		r := &reqs[k]
		i := base + k
		ph.attempted++
		err := r.err
		if err == nil {
			err = r.res.Err
		}
		if err != nil {
			if r.err != nil {
				tr.add("service.rejected", 1)
			}
			ph.fail(i, err)
			continue
		}
		ph.lat = append(ph.lat, ms(r.done-r.due))
		if i < ph.prefix {
			dec, err := newDecision(r.res.Schedule, s.pool)
			if err != nil {
				ph.fail(i, err)
				continue
			}
			dec.Tenant, dec.Seq = r.res.Tenant, r.res.Seq
			ph.decisions = append(ph.decisions, dec)
		}
		if tr != nil {
			s.traceRequest(tr, i, runStart, r)
		}
	}
	return nil
}

// traceRequest records a reply as spans: the generator's lateness, the
// wait between Submit and the start of evaluation (admission, dispatch
// and reply delivery), and the evaluation RoundResult.Elapsed reports.
func (s *serviceRun) traceRequest(tr *tracer, i int, runStart float64, r *request) {
	tr.op = i
	eval := ms(r.res.Elapsed)
	evalStart := runStart + ms(r.done) - eval
	root := tr.spanAt("op", 0, runStart+ms(r.due), ms(r.done-r.due))
	tr.spanAt("gen.late", root, runStart+ms(r.due), ms(r.sent-r.due))
	tr.spanAt("service.queue_wait", root, runStart+ms(r.sent), evalStart-runStart-ms(r.sent))
	tr.spanAt("core.schedule", root, evalStart, eval)
	kind := "greedy"
	if exhaustiveTenant(i % len(s.tenants)) {
		kind = "exhaustive"
	}
	tr.add("service.eval_ms."+kind, eval)
	tr.add("service.rounds."+kind, 1)
	tr.add("service.rounds", 1)
	if r.res.SharedSnapshot {
		tr.add("service.shared", 1)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
