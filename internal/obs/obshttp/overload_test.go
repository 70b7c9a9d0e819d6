package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/nws"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// gateInfo blocks the first Availability call until gate closes, so the
// overload test can hold the service's one runner inside a snapshot
// build deterministically; entry closes once the runner is parked.
type gateInfo struct {
	core.Information
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

// TestServiceHandlerOverload pins /schedule's admission contract under
// a flood: with one runner parked inside a snapshot build and an
// admission depth of 8, exactly 8 requests are admitted (the parked one
// among them); every other answers 429 with Retry-After: 1 and the
// ErrQueueFull text. Once the runner is released every admitted request
// answers 200 with the hosts and predictions its tenant's agent
// schedules directly, and /tenants reports an empty queue.
func TestServiceHandlerOverload(t *testing.T) {
	const (
		depth   = 8
		tenants = 4
		senders = 8
		perSend = 5
	)
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 4})
	nsvc := nws.NewService(eng, 10)
	nsvc.WatchTopology(tp)
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	nsvc.Stop()
	base := core.NWSInformation(nsvc, tp)
	info := &gateInfo{Information: base, gate: make(chan struct{}), entry: make(chan struct{})}

	svc := core.NewSchedService(core.WithServiceRunners(1), core.WithQueueDepth(depth))
	t.Cleanup(svc.Close)
	// Cleanups run last first: a failed test releases the runner before
	// Close waits for it.
	release := sync.OnceFunc(func() { close(info.gate) })
	t.Cleanup(release)
	sizes := make([]int, tenants)
	want := make([]*core.Schedule, tenants)
	for i := range tenants {
		sizes[i] = 400 + 200*i
		a, err := core.NewAgent(tp, hat.Jacobi2D(sizes[i], 5), &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Register(fmt.Sprintf("t%d", i), a); err != nil {
			t.Fatal(err)
		}
		direct, err := core.NewAgent(tp, hat.Jacobi2D(sizes[i], 5), &userspec.Spec{}, base)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = direct.Schedule(sizes[i]); err != nil {
			t.Fatal(err)
		}
	}
	h := ServiceHandler(svc, nil, nil)

	type answer struct {
		tenant int
		rec    *httptest.ResponseRecorder
	}
	answers := make(chan answer, 1+senders*perSend)
	var inflight sync.WaitGroup
	send := func(tenant int) {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			rec := httptest.NewRecorder()
			path := fmt.Sprintf("/schedule?tenant=t%d&n=%d", tenant, sizes[tenant])
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			answers <- answer{tenant, rec}
		}()
	}

	send(0)
	<-info.entry // the one runner is now parked inside the snapshot build

	// Eight senders fire their requests without waiting for answers, so
	// an admitted request, which blocks until its round completes, never
	// holds a sender back.
	var senderWG sync.WaitGroup
	for s := range senders {
		senderWG.Add(1)
		go func() {
			defer senderWG.Done()
			for k := range perSend {
				send((s*perSend + k) % tenants)
			}
		}()
	}
	senderWG.Wait()

	// Every request has passed admission once the rejections and the
	// queue account for all of them.
	total := 1 + senders*perSend
	var got []answer
	deadline := time.Now().Add(10 * time.Second)
	for len(got)+svc.QueueDepth() < total {
		if time.Now().After(deadline) {
			t.Fatalf("%d answers and %d queued of %d requests", len(got), svc.QueueDepth(), total)
		}
		select {
		case a := <-answers:
			got = append(got, a)
		case <-time.After(time.Millisecond):
		}
	}
	if admitted := svc.QueueDepth(); admitted != depth || len(got) != total-depth {
		t.Fatalf("%d admitted and %d answered while parked, want %d and %d", admitted, len(got), depth, total-depth)
	}
	for _, a := range got {
		res := a.rec.Result()
		if res.StatusCode != http.StatusTooManyRequests || res.Header.Get("Retry-After") != "1" ||
			!strings.Contains(a.rec.Body.String(), core.ErrQueueFull.Error()) {
			t.Fatalf("rejected request: status %d, Retry-After %q, body %q",
				res.StatusCode, res.Header.Get("Retry-After"), a.rec.Body.String())
		}
	}

	release()
	inflight.Wait()
	close(answers)
	ok := 0
	for a := range answers {
		if a.rec.Code != http.StatusOK {
			t.Fatalf("admitted request for t%d: status %d, body %q", a.tenant, a.rec.Code, a.rec.Body.String())
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(a.rec.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		w := want[a.tenant]
		if sr.Tenant != fmt.Sprintf("t%d", a.tenant) || !reflect.DeepEqual(sr.Hosts, w.Hosts) ||
			sr.PredictedIterTime != w.PredictedIterTime || sr.PredictedTotal != w.PredictedTotal {
			t.Fatalf("t%d over HTTP: %+v, direct Schedule: %v", a.tenant, sr, w)
		}
		ok++
	}
	if ok != depth {
		t.Fatalf("%d admitted requests answered 200, want %d", ok, depth)
	}

	res, body := get(t, h, "/tenants")
	var tr struct {
		QueueDepth int `json:"queue_depth"`
	}
	if err := json.Unmarshal([]byte(body), &tr); res.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/tenants: status %d, %v: %s", res.StatusCode, err, body)
	}
	if tr.QueueDepth != 0 {
		t.Fatalf("/tenants queue_depth %d after the flood drained, want 0", tr.QueueDepth)
	}
}
