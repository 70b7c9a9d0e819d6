package core

import (
	"math"
	"testing"

	"apples/internal/grid"
	"apples/internal/nws"
	"apples/internal/sim"
)

// TestSnapshotMatchesSource: the snapshot must resolve exactly the values
// the underlying source returns at snapshot time, for every covered host
// and ordered pair.
func TestSnapshotMatchesSource(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 9})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	info := NWSInformation(svc, tp)

	names := tp.HostNames()
	snap := SnapshotInformation(info, names)
	if snap.Source() != info.Source() {
		t.Fatalf("source %q, want %q", snap.Source(), info.Source())
	}
	for _, h := range names {
		if got, want := snap.Availability(h), info.Availability(h); got != want {
			t.Fatalf("availability(%s) %v != %v", h, got, want)
		}
	}
	for _, a := range names {
		for _, b := range names {
			if a == b {
				continue
			}
			if got, want := snap.RouteBandwidth(a, b), info.RouteBandwidth(a, b); got != want {
				t.Fatalf("bandwidth(%s,%s) %v != %v", a, b, got, want)
			}
			if got, want := snap.RouteLatency(a, b), info.RouteLatency(a, b); got != want {
				t.Fatalf("latency(%s,%s) %v != %v", a, b, got, want)
			}
		}
	}
}

// TestSnapshotFallsThrough: lookups outside the snapshotted host set
// delegate to the underlying source instead of failing.
func TestSnapshotFallsThrough(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 1, Quiet: true})
	info := OracleInformation(tp)
	names := tp.HostNames()
	snap := SnapshotInformation(info, names[:2])
	outside := names[len(names)-1]
	if got, want := snap.Availability(outside), info.Availability(outside); got != want {
		t.Fatalf("fallback availability %v != %v", got, want)
	}
	if got, want := snap.RouteBandwidth(names[0], outside), info.RouteBandwidth(names[0], outside); got != want {
		t.Fatalf("fallback bandwidth %v != %v", got, want)
	}
}

// TestSnapshotFreezes: the snapshot keeps its values when the underlying
// system state moves on — that is the point of a per-round snapshot.
func TestSnapshotFreezes(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 4})
	info := OracleInformation(tp)
	if err := eng.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	names := tp.HostNames()
	snap := SnapshotInformation(info, names)
	before := make(map[string]float64, len(names))
	for _, h := range names {
		before[h] = snap.Availability(h)
	}
	if err := eng.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	for _, h := range names {
		if snap.Availability(h) != before[h] {
			t.Fatalf("snapshot availability of %s drifted after simulated time advanced", h)
		}
	}
}

// TestAvailAtMatchesAvailability: under a hostile availability overlay,
// at every position of a view over a 100-host pool (routes composed on
// demand) and a 12-host pool (pairs materialized), the frozen
// availability and routeAt equal what the view reports for the host by
// name and what the base source reports through finiteAvailability and
// finiteRoute. A topology host outside the view and a name the topology
// does not know fall through to the base source by name.
func TestAvailAtMatchesAvailability(t *testing.T) {
	tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{Clusters: 8, PerCluster: 16, Seed: 5, Quiet: true})
	hosts := tp.Hosts()
	overlay := map[string]float64{}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25, 0, 1e300, math.MaxFloat64, 1 + 1e-9} {
		overlay[hosts[i].Name] = v
	}
	outside := hosts[len(hosts)-1].Name
	overlay[outside] = math.Inf(1)
	info := NewOverlayInformation(OracleInformation(tp), overlay)
	for _, k := range []int{100, 12} {
		pool := hosts[:k]
		view := roundSnapshot(info, pool)
		if composed := view.Stats().Pairs == 0; composed != (k > lazySnapshotThreshold) {
			t.Fatalf("%d hosts: routes composed on demand %v", k, composed)
		}
		for i, a := range pool {
			byName, base := view.Availability(a.Name), info.Availability(a.Name)
			if !sameFloat(view.avail[i], byName) || !sameFloat(byName, finiteAvailability(base)) {
				t.Fatalf("%d hosts: %s froze %v, reads %v by name, base %v", k, a.Name, view.avail[i], byName, base)
			}
			for j, b := range pool {
				if i == j {
					continue
				}
				lat, bw := view.routeAt(i, j)
				wantLat, wantBW := finiteRoute(info.RouteLatency(a.Name, b.Name), info.RouteBandwidth(a.Name, b.Name))
				if !sameFloat(lat, view.RouteLatency(a.Name, b.Name)) || !sameFloat(bw, view.RouteBandwidth(a.Name, b.Name)) ||
					!sameFloat(lat, wantLat) || !sameFloat(bw, wantBW) {
					t.Fatalf("%d hosts: %s→%s froze (%v, %v), base (%v, %v)", k, a.Name, b.Name, lat, bw, wantLat, wantBW)
				}
			}
		}
		in := pool[0].Name
		for _, name := range []string{outside, "nobody"} {
			if got, want := view.Availability(name), info.Availability(name); !sameFloat(got, want) {
				t.Fatalf("%d hosts: %s reads %v, base %v", k, name, got, want)
			}
			if got, want := view.RouteLatency(in, name), info.RouteLatency(in, name); !sameFloat(got, want) {
				t.Fatalf("%d hosts: latency to %s reads %v, base %v", k, name, got, want)
			}
			if got, want := view.RouteBandwidth(name, in), info.RouteBandwidth(name, in); !sameFloat(got, want) {
				t.Fatalf("%d hosts: bandwidth from %s reads %v, base %v", k, name, got, want)
			}
		}
	}
}
