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

// TestAvailAtMatchesAvailability: on a pool of more than 64 hosts, both
// view types answer availAt at a host's dense index with exactly the
// Availability they report for it by name, a non-finite availability
// frozen as 0. A host outside the view has no frozen value there and
// falls through to the base source by name; so does a name the
// topology does not know.
func TestAvailAtMatchesAvailability(t *testing.T) {
	tp := grid.ClusterOfClusters(sim.NewEngine(), grid.ClusterOptions{Clusters: 8, PerCluster: 16, Seed: 5, Quiet: true})
	hosts := tp.Hosts()
	const inPool = 100
	overlay := map[string]float64{
		hosts[0].Name: math.NaN(), hosts[1].Name: math.Inf(1), hosts[2].Name: math.Inf(-1),
		hosts[3].Name: -0.25, hosts[4].Name: 0,
		hosts[inPool].Name: math.NaN(), hosts[inPool+1].Name: math.Inf(1), // outside the pool
	}
	info := NewOverlayInformation(OracleInformation(tp), overlay)
	pool := hosts[:inPool]
	names := make([]string, len(pool))
	for i, h := range pool {
		names[i] = h.Name
	}
	link := roundSnapshot(info, pool)
	if _, ok := link.(*linkSnapshot); !ok {
		t.Fatalf("roundSnapshot over %d hosts built %T, want *linkSnapshot", inPool, link)
	}
	views := []struct {
		name string
		v    infoView
	}{{"link", link}, {"eager", SnapshotInformation(info, names)}}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, vw := range views {
		for _, h := range hosts {
			byName, base := vw.v.Availability(h.Name), info.Availability(h.Name)
			at, frozen := 0.0, false
			if i := vw.v.hostIndex(h); i >= 0 {
				at, frozen = vw.v.availAt(i)
			}
			if want := h.Index() < inPool; frozen != want {
				t.Fatalf("%s: %s frozen=%v, want %v", vw.name, h.Name, frozen, want)
			}
			if !frozen {
				if !same(byName, base) {
					t.Fatalf("%s: %s outside the view reads %v, base %v", vw.name, h.Name, byName, base)
				}
				continue
			}
			if !same(at, byName) || !same(at, finiteAvailability(base)) {
				t.Fatalf("%s: %s availAt %v, Availability %v, base %v", vw.name, h.Name, at, byName, base)
			}
		}
		if got := vw.v.Availability("nobody"); got != 1 {
			t.Fatalf("%s: unknown host reads %v, want the base's 1", vw.name, got)
		}
	}
}
