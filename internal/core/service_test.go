package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"apples/internal/hat"
	"apples/internal/obs"
	"apples/internal/userspec"
)

// TestServiceSingleTenantParity is the tentpole's bit-identity gate: a
// service with one registered tenant must produce exactly the schedule
// standalone Agent.Schedule produces, across the parity sweep's pools,
// selectors, and metrics. The service moves snapshot ownership into the
// cache; that may not move the decision.
func TestServiceSingleTenantParity(t *testing.T) {
	pools := []struct {
		name          string
		clusters, per int
	}{
		{"sdscpcl-8host", 0, 0},
		{"cluster-12host", 3, 4},
	}
	selectors := []SelectorKind{SelectorExhaustive, SelectorGreedy, SelectorBeam}
	metrics := []userspec.Metric{userspec.MinExecutionTime, userspec.MaxSpeedup, userspec.MinCost}
	for _, p := range pools {
		tp, info := buildPool(t, p.clusters, p.per, 17)
		tpl := hat.Jacobi2D(600, 10)
		for _, sel := range selectors {
			for _, metric := range metrics {
				name := fmt.Sprintf("%s/%s/%s", p.name, sel, metric)
				spec := &userspec.Spec{Metric: metric}
				standalone, err := NewAgent(tp, tpl, spec, info, WithSelector(SelectorSpec{Kind: sel}))
				if err != nil {
					t.Fatal(err)
				}
				want, err := standalone.Schedule(600)
				if err != nil {
					t.Fatalf("%s standalone: %v", name, err)
				}

				client, err := NewAgent(tp, tpl, spec, info, WithSelector(SelectorSpec{Kind: sel}))
				if err != nil {
					t.Fatal(err)
				}
				svc := NewSchedService(WithServiceRunners(2))
				tenant, err := svc.Register("solo", client)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tenant.Schedule(600)
				svc.Close()
				if err != nil {
					t.Fatalf("%s service: %v", name, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: service schedule diverged\nstandalone: %v\nservice:    %v", name, want, got)
				}
			}
		}
	}
}

// TestServiceConcurrentTenantsRace is the satellite race sweep: N
// tenants × concurrent rounds over ONE shared snapshot and ONE shared
// Metrics registry, with exact bookkeeping afterwards. Run under -race
// this exercises the cache's once-build fan-out and the labeled metric
// series concurrently.
func TestServiceConcurrentTenantsRace(t *testing.T) {
	const tenants, rounds = 8, 5
	tp, info := buildPool(t, 3, 4, 9)
	tpl := hat.Jacobi2D(600, 10)

	reg := obs.NewMetrics()
	col := obs.NewCollector()
	svc := NewSchedService(WithServiceRunners(4),
		WithServiceMetrics(reg), WithServiceTracer(col))

	standalone, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
	if err != nil {
		t.Fatal(err)
	}
	want, err := standalone.Schedule(600)
	if err != nil {
		t.Fatal(err)
	}

	var ts []*Tenant
	for i := 0; i < tenants; i++ {
		a, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := svc.Register(fmt.Sprintf("t%d", i), a)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tn)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	results := make(map[string][]RoundResult)
	for _, tn := range ts {
		wg.Add(1)
		go func(tn *Tenant) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ch, err := tn.Submit(600)
				if err != nil {
					t.Errorf("tenant %s submit: %v", tn.ID(), err)
					return
				}
				res := <-ch
				mu.Lock()
				results[tn.ID()] = append(results[tn.ID()], res)
				mu.Unlock()
			}
		}(tn)
	}
	wg.Wait()
	svc.Close()

	// Every round decided exactly what the standalone agent decides, and
	// per-tenant results arrived in submission order.
	for id, rs := range results {
		if len(rs) != rounds {
			t.Fatalf("tenant %s: %d results, want %d", id, len(rs), rounds)
		}
		for i, res := range rs {
			if res.Err != nil {
				t.Fatalf("tenant %s round %d: %v", id, i, res.Err)
			}
			if res.Seq != uint64(i+1) {
				t.Fatalf("tenant %s: result %d has seq %d", id, i, res.Seq)
			}
			if !reflect.DeepEqual(res.Schedule, want) {
				t.Fatalf("tenant %s round %d diverged from standalone\nwant %v\ngot  %v", id, i, want, res.Schedule)
			}
		}
	}

	// Exact bookkeeping on the shared registry.
	total := uint64(tenants * rounds)
	for i := 0; i < tenants; i++ {
		key := obs.NameWithLabels(obs.MetricTenantRounds, "tenant", fmt.Sprintf("t%d", i))
		if got := reg.Counter(key).Value(); got != rounds {
			t.Errorf("%s = %d, want %d", key, got, rounds)
		}
	}
	builds := reg.Counter(obs.MetricSnapshotBuilds).Value()
	reused := reg.Counter(obs.MetricSnapshotReused).Value()
	if builds+reused != total {
		t.Errorf("builds(%d)+reused(%d) != %d rounds", builds, reused, total)
	}
	if builds < 1 {
		t.Errorf("no snapshot build recorded")
	}
	if got := reg.Gauge(obs.MetricQueueDepth).Value(); got != 0 {
		t.Errorf("final queue depth gauge = %g, want 0", got)
	}
	// The fairness *gauge* may hold a value computed by a round that
	// finished just before the true last one; the live computation over
	// the final counters must be exactly fair.
	if got := svc.Fairness(); got != 1 {
		t.Errorf("fairness = %g, want 1 (all tenants completed %d rounds)", got, rounds)
	}
	if svc.QueueDepth() != 0 {
		t.Errorf("QueueDepth = %d after drain", svc.QueueDepth())
	}

	// The trace saw one tenant_round per completed round, and each
	// tenant's events carry strictly increasing round numbers in
	// emission order — the deterministic per-tenant ordering, observed
	// from the execution side.
	lastRound := map[string]uint64{}
	tenantEvents := 0
	for _, e := range col.Events() {
		if e.Type != obs.EvTenantRound {
			continue
		}
		tenantEvents++
		if e.Round != lastRound[e.Tenant]+1 {
			t.Fatalf("tenant %s: round %d emitted after %d", e.Tenant, e.Round, lastRound[e.Tenant])
		}
		lastRound[e.Tenant] = e.Round
	}
	if tenantEvents != int(total) {
		t.Errorf("traced %d tenant rounds, want %d", tenantEvents, total)
	}
}

// TestServiceSharedRatio pins the acceptance bar: 64 tenants over one
// 12-host pool must reuse shared snapshots for ≥ 90%% of their rounds.
// With a static tick (no invalidation) the cache builds exactly once,
// so the ratio is (rounds−1)/rounds.
func TestServiceSharedRatio(t *testing.T) {
	const tenants, rounds = 64, 3
	tp, info := buildPool(t, 3, 4, 21)
	tpl := hat.Jacobi2D(600, 10)
	svc := NewSchedService(WithServiceRunners(4), WithQueueDepth(4096))
	defer svc.Close()

	var ts []*Tenant
	for i := 0; i < tenants; i++ {
		a, err := NewAgent(tp, tpl, &userspec.Spec{}, info,
			WithSelector(SelectorSpec{Kind: SelectorGreedy}))
		if err != nil {
			t.Fatal(err)
		}
		tn, err := svc.Register(fmt.Sprintf("t%d", i), a)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tn)
	}
	var wg sync.WaitGroup
	for _, tn := range ts {
		wg.Add(1)
		go func(tn *Tenant) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := tn.Schedule(600); err != nil {
					t.Errorf("tenant %s: %v", tn.ID(), err)
					return
				}
			}
		}(tn)
	}
	wg.Wait()
	if ratio := svc.SharedRatio(); ratio < 0.9 {
		t.Fatalf("shared snapshot ratio %.3f < 0.9", ratio)
	}
	if f := svc.Fairness(); f != 1 {
		t.Errorf("fairness %g, want 1", f)
	}
}

// TestServiceFairnessGaugeAtExposition checks that rounds leave the
// fairness gauge alone and that rendering the registry computes it from
// the live tenant counts.
func TestServiceFairnessGaugeAtExposition(t *testing.T) {
	tp, info := buildPool(t, 0, 0, 3)
	tpl := hat.Jacobi2D(600, 10)
	reg := obs.NewMetrics()
	svc := NewSchedService(WithServiceRunners(1), WithServiceMetrics(reg))
	defer svc.Close()
	for i, rounds := range []int{2, 1} {
		a, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := svc.Register(fmt.Sprintf("t%d", i), a)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			if _, err := tn.Schedule(600); err != nil {
				t.Fatal(err)
			}
		}
	}
	gauge := reg.Gauge(obs.MetricTenantFairness)
	if v := gauge.Value(); v != 0 {
		t.Fatalf("fairness gauge %g before any exposition, want 0", v)
	}
	if _, err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if v := gauge.Value(); v != 2 {
		t.Fatalf("fairness gauge %g after exposition, want 2 (2 rounds vs 1)", v)
	}
}

// gateInfo blocks the first Availability call until released, letting
// the queue-full test hold the single runner mid-snapshot
// deterministically.
type gateInfo struct {
	Information
	once  sync.Once
	gate  chan struct{}
	entry chan struct{}
}

func (g *gateInfo) Availability(host string) float64 {
	g.once.Do(func() {
		close(g.entry)
		<-g.gate
	})
	return g.Information.Availability(host)
}

// TestServiceQueueFull pins the backpressure contract: submissions past
// the admission depth fail fast with ErrQueueFull and nothing else
// changes; after the queue drains, new submissions are admitted again.
func TestServiceQueueFull(t *testing.T) {
	tp, base := buildPool(t, 0, 0, 3)
	tpl := hat.Jacobi2D(400, 5)
	info := &gateInfo{Information: base, gate: make(chan struct{}), entry: make(chan struct{})}

	reg := obs.NewMetrics()
	svc := NewSchedService(WithServiceRunners(1), WithQueueDepth(2), WithServiceMetrics(reg))
	a, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Register("t0", a)
	if err != nil {
		t.Fatal(err)
	}

	ch1, err := tn.Submit(400)
	if err != nil {
		t.Fatal(err)
	}
	<-info.entry // the runner is now parked inside the snapshot build
	ch2, err := tn.Submit(400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Submit(400); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: got %v, want ErrQueueFull", err)
	}
	if got := reg.Counter(obs.MetricQueueRejected).Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(info.gate)
	for _, ch := range []<-chan RoundResult{ch1, ch2} {
		if res := <-ch; res.Err != nil {
			t.Fatalf("queued round failed: %v", res.Err)
		}
	}
	// Depth freed: admissions work again.
	if _, err := tn.Schedule(400); err != nil {
		t.Fatalf("post-drain schedule: %v", err)
	}
	svc.Close()
	if _, err := tn.Submit(400); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("submit after close: got %v, want ErrServiceClosed", err)
	}
}

// TestServiceSustainedOverload floods a parked service from several
// goroutines far past its admission depth: every rejection must be a
// typed ErrQueueFull, the heap in use after GC must not grow when ten
// times as many submits are rejected, and once the runner is released
// Close must deliver a result to every admitted request.
func TestServiceSustainedOverload(t *testing.T) {
	const (
		depth   = 32
		tenants = 4
		senders = 4
	)
	tp, base := buildPool(t, 0, 0, 3)
	tpl := hat.Jacobi2D(400, 5)
	info := &gateInfo{Information: base, gate: make(chan struct{}), entry: make(chan struct{})}
	reg := obs.NewMetrics()
	svc := NewSchedService(WithServiceRunners(1), WithQueueDepth(depth), WithServiceMetrics(reg))
	tns := make([]*Tenant, tenants)
	for i := range tns {
		a, err := NewAgent(tp, tpl, &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		if tns[i], err = svc.Register(fmt.Sprintf("t%d", i), a); err != nil {
			t.Fatal(err)
		}
	}
	first, err := tns[0].Submit(400)
	if err != nil {
		t.Fatal(err)
	}
	<-info.entry // the runner is now parked inside the snapshot build
	admitted := []<-chan RoundResult{first}

	var mu sync.Mutex
	rejected := 0
	flood := func(submits int) {
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var mine []<-chan RoundResult
				full := 0
				for i := 0; i < submits/senders; i++ {
					ch, err := tns[(g+i)%tenants].Submit(400)
					switch {
					case err == nil:
						mine = append(mine, ch)
					case errors.Is(err, ErrQueueFull):
						full++
					default:
						t.Errorf("overloaded submit: got %v, want ErrQueueFull", err)
						return
					}
				}
				mu.Lock()
				admitted = append(admitted, mine...)
				rejected += full
				mu.Unlock()
			}(g)
		}
		wg.Wait()
	}
	heapInUse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	flood(2_000)
	if len(admitted) != depth {
		t.Fatalf("%d requests admitted, want the queue depth %d", len(admitted), depth)
	}
	before := heapInUse()
	flood(20_000)
	after := heapInUse()
	if t.Failed() {
		t.FailNow()
	}
	if len(admitted) != depth || rejected != 22_000-(depth-1) {
		t.Fatalf("admitted %d, rejected %d of %d flooded submits", len(admitted), rejected, 22_000)
	}
	if got := reg.Counter(obs.MetricQueueRejected).Value(); got != uint64(rejected) {
		t.Errorf("rejected counter = %d, want %d", got, rejected)
	}
	t.Logf("heap in use %d -> %d bytes", before, after)
	// 18,000 more rejections leaking even 64 bytes each would add 1.1 MB.
	if after > before+1<<20 {
		t.Errorf("heap in use grew from %d to %d bytes across 10x more rejected submits", before, after)
	}

	close(info.gate)
	svc.Close()
	for i, ch := range admitted {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("admitted request %d failed: %v", i, res.Err)
			}
		default:
			t.Fatalf("admitted request %d has no result after Close", i)
		}
	}
}

// TestSnapshotCacheInvalidate pins the epoch contract: acquires after
// Invalidate rebuild, and the counters keep the shared ratio honest.
func TestSnapshotCacheInvalidate(t *testing.T) {
	tp, info := buildPool(t, 0, 0, 5)
	pool := tp.Hosts()
	c := newSnapshotCache()
	e1, shared := c.acquire(info, pool)
	if shared {
		t.Fatal("first acquire reported shared")
	}
	e2, shared := c.acquire(info, pool)
	if !shared || e2.view != e1.view {
		t.Fatal("second acquire did not share the frozen view")
	}
	c.Invalidate()
	e3, shared := c.acquire(info, pool)
	if shared {
		t.Fatal("post-invalidate acquire reported shared")
	}
	if e3.view == e1.view {
		t.Fatal("post-invalidate acquire returned the retired view")
	}
	if want := 1.0 / 3.0; c.ratio() != want {
		t.Fatalf("ratio = %g, want %g (1 reuse over 2 builds + 1 reuse)", c.ratio(), want)
	}
}
