package obshttp

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// FuzzScheduleQuery drives /schedule with raw tenant and n query
// strings over a 6-host oracle pool served by one greedy and one
// exhaustive tenant. Every request must answer 200, 400, 404, 422, 429
// or 503 without a panic, and a 200 must decode to a schedule on pool
// hosts whose predicted_total is positive and finite. The committed
// corpus holds n = 1<<40, whose n² grid overflows int: unchecked, it
// answered 200 with predicted_total 0.
func FuzzScheduleQuery(f *testing.F) {
	tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{Clusters: 2, PerCluster: 3, Seed: 1, Quiet: true})
	info := core.OracleInformation(tp)
	svc := core.NewSchedService()
	f.Cleanup(svc.Close)
	for id, kind := range map[string]core.SelectorKind{"greedy": core.SelectorGreedy, "exhaustive": core.SelectorExhaustive} {
		a, err := core.NewAgent(tp, hat.Jacobi2D(400, 5), &userspec.Spec{}, info,
			core.WithSelector(core.SelectorSpec{Kind: kind}))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := svc.Register(id, a); err != nil {
			f.Fatal(err)
		}
	}
	inPool := map[string]bool{}
	for _, name := range tp.HostNames() {
		inPool[name] = true
	}
	h := ServiceHandler(svc, nil, nil)

	f.Add("greedy", "400")
	f.Add("exhaustive", "")
	f.Add("nobody", "400")
	f.Add("", "-3")
	f.Fuzz(func(t *testing.T, tenant, n string) {
		q := url.Values{"tenant": {tenant}, "n": {n}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schedule?"+q.Encode(), nil))
		res := rec.Result()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch res.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("tenant %q n %q: status %d: %s", tenant, n, res.StatusCode, body)
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("tenant %q n %q: 200 body is not a schedule: %v\n%s", tenant, n, err, body)
		}
		if len(sr.Hosts) == 0 {
			t.Fatalf("tenant %q n %q: schedule has no hosts", tenant, n)
		}
		for _, host := range sr.Hosts {
			if !inPool[host] {
				t.Fatalf("tenant %q n %q: host %q is not in the pool", tenant, n, host)
			}
		}
		if p := sr.PredictedTotal; !(p > 0) || math.IsInf(p, 1) {
			t.Fatalf("tenant %q n %q: predicted_total %v is not positive and finite", tenant, n, p)
		}
	})
}
