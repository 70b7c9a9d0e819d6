package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/jacobi"
	"apples/internal/mstore"
	"apples/internal/nws"
	"apples/internal/obs/audit"
	"apples/internal/partition"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// nwsPeriod is the NWS sensing period every sensing workload uses, in
// simulated seconds; one op advances the engine by exactly one period.
const nwsPeriod = 10

// workload is one traffic mix. prefix is how many leading ops form the
// decision digest and the quality metrics: every run makes at least
// that many, whatever its length, so both are a function of the seed.
type workload struct {
	name   string
	why    string
	prefix int
	open   bool // an open loop: its offered rate sets its pace, and its latency is mostly waiting (see measure)
	// build sets up one instance; sense-2048 keeps its measurement
	// store in workdir.
	build func(seed int64, in *instruments, workdir string) (runner, error)
}

// runner drives one built instance of a workload.
type runner interface {
	// run makes ops for d of wall time, and at least until the instance
	// has made minOps ops in all, recording them in ph. tr is nil for an
	// untraced run.
	run(d time.Duration, minOps int, ph *phase, tr *tracer) error
	close() error
}

// phase accumulates the ops of one measured stretch of a workload.
type phase struct {
	prefix    int
	lat       []float64 // per op, ms
	elapsed   time.Duration
	attempted int
	failed    int
	decisions []decision // made by ops before prefix
	errs      []string   // the first few failures
}

func (ph *phase) fail(op int, err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf("op %d: %v", op, err))
	}
}

// workloads lists the benchmark's traffic mixes. The names are stable:
// issues and results cite them.
var workloads = []*workload{
	{name: "fig2-round", prefix: 200, build: buildFig2,
		why: "whole AppLeS round on the Fig. 2 SDSC/PCL testbed: NWS sample, exhaustive selection, plan, estimate, simulated Jacobi; actuation and sim dominate"},
	{name: "grid-2048", prefix: 20, build: buildGrid,
		why: "quiet oracle-informed 2048-host grid, greedy selector: selection and plan/estimate carry all the load; sensing, sim and actuation are bypassed"},
	{name: "service-mixed", prefix: 640, open: true, build: buildService,
		why: "open loop at 150 rounds/s over 64 service tenants, 1 in 8 exhaustive: admission and dispatch set p50, the exhaustive path sets the tail"},
	{name: "sense-2048", prefix: 120, build: buildSense,
		why: "NWS sweeps of 2177 series into the measurement store, with a greedy 2048-host round on live forecasts every 15th op: the write path beside the read path"},
	{name: "resched-live", prefix: 200, build: buildResched,
		why: "delta-aware ReschedSession round after every live NWS sweep on a 12-host pool: the fused session kernel carries the load, the Coordinator is bypassed"},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// deriveSeed gives each workload its own testbed and load seed from the
// run's seed, so one -seed flag moves every workload to fresh inputs.
func deriveSeed(seed int64, workload string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", workload, seed)
	return int64(h.Sum64() & (1<<62 - 1))
}

// hostSet names the hosts a workload offers its agents.
func hostSet(tp *grid.Topology) map[string]bool {
	set := map[string]bool{}
	for _, h := range tp.HostNames() {
		set[h] = true
	}
	return set
}

// stepper is one closed-loop workload: step makes op i, which returns
// at most one decision.
type stepper interface {
	step(i int, tr *tracer, root int) (d decision, made bool, err error)
	engine() *sim.Engine // nil when the workload simulates nothing
	close() error
}

// closedLoop runs a stepper with one client: the next op starts when the
// previous one returns.
type closedLoop struct {
	s    stepper
	next int
}

func (c *closedLoop) run(d time.Duration, minOps int, ph *phase, tr *tracer) error {
	start := time.Now()
	for c.next < minOps || time.Since(start) < d {
		i := c.next
		c.next++
		eng := c.s.engine() // fig2-round moves to a new engine between epochs
		var fired uint64
		if tr != nil {
			tr.op = i
			if eng != nil {
				fired = eng.Fired()
			}
		}
		root := tr.begin("op", 0)
		t0 := time.Now()
		dec, made, err := c.s.step(i, tr, root)
		lat := time.Since(t0)
		tr.end(root)
		if tr != nil && eng != nil {
			tr.add("sim.events", float64(eng.Fired()-fired))
		}
		ph.attempted++
		if err != nil {
			ph.fail(i, err)
			continue
		}
		ph.lat = append(ph.lat, float64(lat.Nanoseconds())/1e6)
		if made && i < ph.prefix {
			ph.decisions = append(ph.decisions, dec)
		}
	}
	ph.elapsed += time.Since(start)
	return nil
}

func (c *closedLoop) close() error { return c.s.close() }

// advance runs the engine one NWS period. With no job running, that
// fires exactly one event, the sensor sweep, which the traced run
// checks before it counts the call as a sweep.
func advance(eng *sim.Engine, in *instruments, tr *tracer, root int) error {
	limitEvents(eng)
	if tr == nil {
		return eng.RunUntil(eng.Now() + nwsPeriod)
	}
	fired := eng.Fired()
	sweep, appends := in.sweep.Sum(), in.append.Sum()
	sp := tr.begin("sim.run_until", root)
	err := eng.RunUntil(eng.Now() + nwsPeriod)
	tr.end(sp)
	sw := tr.reported("nws.sweep", sp, (in.sweep.Sum()-sweep)*1e3)
	if a := in.append.Sum() - appends; a > 0 {
		tr.reported("mstore.append", sw, a*1e3)
	}
	if eng.Fired()-fired == 1 {
		tr.add("nws.sweep_runs", 1)
		tr.add("nws.sweep_ms", tr.spans[sp-1].Dur)
	}
	return err
}

// maxOpEvents caps the events one call into the engine may fire, so a
// simulation that stops advancing fails its op with sim.ErrEventLimit
// instead of hanging the run. A fig2-round op fires about 1300.
const maxOpEvents = 1 << 20

func limitEvents(eng *sim.Engine) { eng.SetEventLimit(eng.Fired() + maxOpEvents) }

// schedule runs one Agent.Schedule; traced, it is a core.schedule span
// with the round's stages under it.
func schedule(a *core.Agent, n int, in *instruments, tr *tracer, parent int) (*core.Schedule, error) {
	if tr == nil {
		return a.Schedule(n)
	}
	objs, bytes := tr.allocs(parent)
	stages := in.stageSums()
	sp := tr.begin("core.schedule", parent)
	s, err := a.Schedule(n)
	tr.end(sp)
	tr.reportStages(sp, stages, in.stageSums())
	objs2, bytes2 := tr.allocs(parent)
	tr.add("core.allocs", objs2-objs)
	tr.add("core.bytes", bytes2-bytes)
	if s != nil {
		tr.add("core.candidates", float64(s.CandidatesConsidered))
	}
	return s, err
}

// agentOpts adds stage timing to an agent's options when in is on.
func agentOpts(in *instruments, opts ...core.AgentOption) []core.AgentOption {
	if in != nil {
		opts = append(opts, core.WithStageTiming(in.stages))
	}
	return opts
}

// nwsOpts adds sweep timing and sample counting when in is on.
func nwsOpts(in *instruments, opts ...nws.ServiceOption) []nws.ServiceOption {
	if in != nil {
		opts = append(opts, nws.WithStageTiming(in.stages), nws.WithMetrics(in.reg))
	}
	return opts
}

var strip = &userspec.Spec{Decomposition: "strip"}

// --- fig2-round ---

const (
	fig2N          = 2000
	fig2Iterations = 40
)

// fig2Epoch is how many ops fig2-round runs on one testbed before it
// builds a fresh one from the next epoch seed. It keeps simulated time
// below about 5e4 s: without epochs, a run hung near 2.5e5 s with the
// engine spinning in the fluid CPU model's completion handler, most
// likely on a completion delay below the clock's resolution there.
const fig2Epoch = 2000

// fig2 is the paper's loop on its own testbed: each op advances the
// engine one NWS period, then Agent.Run schedules over all 255 host
// sets and actuates the winner as a simulated Jacobi run on the same
// engine, while the audit engine joins prediction and measurement.
type fig2 struct {
	seed int64
	in   *instruments
	aud  *audit.Engine // shared by every epoch's agent
	act  core.Actuator // f.actuate

	// The current epoch's testbed.
	eng   *sim.Engine
	agent *core.Agent
	jac   core.Actuator
	pool  map[string]bool

	// Set for the duration of one traced Agent.Run and read by the
	// actuator that wraps jac, which is where the schedule ends.
	tr          *tracer
	run, sched  int
	stages      [4]float64
	objs, bytes float64
}

func buildFig2(seed int64, in *instruments, _ string) (runner, error) {
	f := &fig2{seed: seed, in: in}
	f.aud = audit.New(audit.WithClock(func() float64 { return f.eng.Now() }))
	f.act = core.ActuatorFunc(f.actuate)
	if err := f.reset(0); err != nil {
		return nil, err
	}
	return &closedLoop{s: f}, nil
}

// reset builds epoch e's testbed: the SDSC/PCL hosts under ambient load,
// an NWS warmed for 300 s that keeps sensing, and the audited agent.
func (f *fig2) reset(e int) error {
	seed := f.seed
	if e > 0 {
		seed = deriveSeed(f.seed, fmt.Sprintf("epoch%d", e))
	}
	f.eng = sim.NewEngine()
	tp := grid.SDSCPCL(f.eng, grid.TestbedOptions{Seed: seed})
	svc := nws.NewService(f.eng, nwsPeriod, nwsOpts(f.in, nws.WithResiduals(f.aud))...)
	svc.WatchTopology(tp)
	if err := f.eng.RunUntil(300); err != nil {
		return err
	}
	tpl := hat.Jacobi2D(fig2N, fig2Iterations)
	agent, err := core.NewAgent(tp, tpl, strip, core.NWSInformation(svc, tp),
		agentOpts(f.in, core.WithAudit(f.aud), core.WithAuditTenant("fig2"))...)
	if err != nil {
		return err
	}
	f.agent, f.pool = agent, hostSet(tp)
	f.jac = core.ActuatorFromJacobi(tp, jacobi.Config{
		Iterations:          fig2Iterations,
		FlopPerPoint:        tpl.Tasks[0].FlopPerUnit,
		BytesPerPoint:       tpl.Tasks[0].BytesPerUnit,
		BorderBytesPerPoint: tpl.Comms[0].BytesPerUnit,
	})
	return nil
}

// actuate wraps the Jacobi actuator: traced, it closes the schedule
// span Agent.Run opened and times the actuation.
func (f *fig2) actuate(p *partition.Placement) (float64, error) {
	tr := f.tr
	if tr == nil {
		return f.jac.Actuate(p)
	}
	tr.end(f.sched)
	tr.reportStages(f.sched, f.stages, f.in.stageSums())
	objs, bytes := tr.allocs(f.run)
	tr.add("core.allocs", objs-f.objs)
	tr.add("core.bytes", bytes-f.bytes)

	fired, sweep := f.eng.Fired(), f.in.sweep.Sum()
	sp := tr.begin("jacobi.actuate", f.run)
	m, err := f.jac.Actuate(p)
	tr.end(sp)
	tr.reported("nws.sweep", sp, (f.in.sweep.Sum()-sweep)*1e3)
	tr.add("jacobi.events", float64(f.eng.Fired()-fired))
	return m, err
}

func (f *fig2) step(i int, tr *tracer, root int) (decision, bool, error) {
	if err := advance(f.eng, f.in, tr, root); err != nil {
		return decision{}, false, err
	}
	f.tr = tr
	if tr != nil {
		f.objs, f.bytes = tr.allocs(root)
		f.stages = f.in.stageSums()
		f.run = tr.begin("core.run", root)
		f.sched = tr.begin("core.schedule", f.run)
	}
	limitEvents(f.eng)
	s, measured, err := f.agent.Run(fig2N, f.act)
	tr.end(f.run)
	f.tr = nil
	if err != nil {
		return decision{}, false, err
	}
	tr.add("core.candidates", float64(s.CandidatesConsidered))
	d, err := newDecision(s, f.pool)
	if err == nil && !(measured > 0) {
		err = fmt.Errorf("simulated Jacobi time %v is not positive", measured)
	}
	if err != nil {
		return decision{}, false, err
	}
	d.Measured = measured
	if (i+1)%fig2Epoch == 0 {
		err = f.reset((i + 1) / fig2Epoch)
	}
	return d, err == nil, err
}

func (f *fig2) engine() *sim.Engine { return f.eng }
func (f *fig2) close() error        { return nil }

// auditStats reports the audit engine's joins, pending predictions, and
// the join-weighted mean absolute percentage error of the joins.
func (f *fig2) auditStats() (joined uint64, pending int, mape float64) {
	snap := f.aud.Snapshot()
	var joins float64
	for _, g := range snap.Groups {
		mape += g.MAPE * float64(g.Joins)
		joins += float64(g.Joins)
	}
	return snap.Joined, snap.Pending, ratio(mape, joins)
}

// --- grid-2048 ---

const gridN = 4000

// gridRound schedules on a dedicated, oracle-informed 128x16
// cluster-of-clusters: nothing senses or simulates, so each op is one
// greedy Coordinator round and nothing else.
type gridRound struct {
	agent *core.Agent
	in    *instruments
	pool  map[string]bool
}

func buildGrid(seed int64, in *instruments, _ string) (runner, error) {
	tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{
		Clusters: 128, PerCluster: 16, Seed: seed, Quiet: true})
	agent, err := core.NewAgent(tp, hat.Jacobi2D(gridN, 40), strip, core.OracleInformation(tp),
		agentOpts(in, core.WithSelector(core.SelectorSpec{Kind: core.SelectorGreedy}))...)
	if err != nil {
		return nil, err
	}
	return &closedLoop{s: &gridRound{agent: agent, in: in, pool: hostSet(tp)}}, nil
}

func (g *gridRound) step(_ int, tr *tracer, root int) (decision, bool, error) {
	s, err := schedule(g.agent, gridN, g.in, tr, root)
	if err != nil {
		return decision{}, false, err
	}
	d, err := newDecision(s, g.pool)
	return d, err == nil, err
}

func (g *gridRound) engine() *sim.Engine { return nil }
func (g *gridRound) close() error        { return nil }

// --- sense-2048 ---

// senseEvery is how often, in ops, sense-2048 schedules on the live
// forecasts it has been writing. One op in 15 puts p95 inside the
// schedule ops; at one in 30 it sat in the sweeps' tail, which moves
// with garbage-collection timing, and read 2.4-4.1 ms across runs.
const senseEvery = 15

// sense watches every host and link of a loaded 128x16
// cluster-of-clusters, appending each sample to a measurement store.
type sense struct {
	eng   *sim.Engine
	svc   *nws.Service
	st    *mstore.Store
	dir   string
	agent *core.Agent
	in    *instruments
	pool  map[string]bool
}

func buildSense(seed int64, in *instruments, workdir string) (runner, error) {
	dir, err := os.MkdirTemp(workdir, "sense-store-")
	if err != nil {
		return nil, err
	}
	// 16 MiB segments put the sealing fsync on about one op in 200. At the
	// 1 MiB default it landed on every 13th op, and p95 measured the disk.
	stOpts := []mstore.Option{mstore.WithSegmentBytes(16 << 20)}
	if in != nil {
		stOpts = append(stOpts, mstore.WithMetrics(in.reg))
	}
	st, err := mstore.Open(dir, stOpts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 128, PerCluster: 16, Seed: seed})
	svc := nws.NewService(eng, nwsPeriod, nwsOpts(in, nws.WithStore(st))...)
	svc.WatchTopology(tp)
	s := &sense{eng: eng, svc: svc, st: st, dir: dir, in: in, pool: hostSet(tp)}
	if err := eng.RunUntil(300); err != nil {
		s.close()
		return nil, err
	}
	s.agent, err = core.NewAgent(tp, hat.Jacobi2D(gridN, 40), strip, core.NWSInformation(svc, tp),
		agentOpts(in, core.WithSelector(core.SelectorSpec{Kind: core.SelectorGreedy}))...)
	if err != nil {
		s.close()
		return nil, err
	}
	return &closedLoop{s: s}, nil
}

func (s *sense) step(i int, tr *tracer, root int) (decision, bool, error) {
	segs := s.st.Segments()
	if err := advance(s.eng, s.in, tr, root); err != nil {
		return decision{}, false, err
	}
	if err := s.svc.StoreErr(); err != nil {
		return decision{}, false, err
	}
	tr.add("mstore.segments", float64(s.st.Segments()-segs))
	if (i+1)%senseEvery != 0 {
		return decision{}, false, nil
	}
	sc, err := schedule(s.agent, gridN, s.in, tr, root)
	if err != nil {
		return decision{}, false, err
	}
	d, err := newDecision(sc, s.pool)
	return d, err == nil, err
}

func (s *sense) engine() *sim.Engine { return s.eng }

func (s *sense) close() error {
	s.svc.Stop()
	err := s.st.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// --- resched-live ---

const reschedN = 2000

// resched re-asks a delta-aware session after every live NWS sweep.
type resched struct {
	eng  *sim.Engine
	sess *core.ReschedSession
	in   *instruments
	pool map[string]bool
}

func buildResched(seed int64, in *instruments, _ string) (runner, error) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: 3, PerCluster: 4, Seed: seed})
	svc := nws.NewService(eng, nwsPeriod, nwsOpts(in)...)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, err
	}
	agent, err := core.NewAgent(tp, hat.Jacobi2D(reschedN, 40), strip, core.NWSInformation(svc, tp))
	if err != nil {
		return nil, err
	}
	sess, err := agent.NewReschedSession(reschedN)
	if err != nil {
		return nil, err
	}
	// The cold round scores the whole universe once; users pay it when
	// they open a session, not per tick.
	if _, _, err := sess.Round(); err != nil {
		return nil, err
	}
	return &closedLoop{s: &resched{eng: eng, sess: sess, in: in, pool: hostSet(tp)}}, nil
}

func (r *resched) step(_ int, tr *tracer, root int) (decision, bool, error) {
	if err := advance(r.eng, r.in, tr, root); err != nil {
		return decision{}, false, err
	}
	var objs float64
	if tr != nil {
		objs, _ = tr.allocs(root)
	}
	sp := tr.begin("session.round", root)
	s, st, err := r.sess.Round()
	tr.end(sp)
	if tr != nil {
		objs2, _ := tr.allocs(root)
		tr.add("session.allocs", objs2-objs)
		tr.add("session.rescored", float64(st.Rescored))
		tr.add("session.considered", float64(st.Considered))
		tr.add("session.changed_hosts", float64(st.ChangedHosts))
		if st.Carried {
			tr.add("session.carried", 1)
		}
	}
	if err != nil {
		return decision{}, false, err
	}
	d, err := newDecision(s, r.pool)
	return d, err == nil, err
}

func (r *resched) engine() *sim.Engine { return r.eng }
func (r *resched) close() error        { return nil }
