package core

import (
	"fmt"
	"math"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/load"
	"apples/internal/partition"
	"apples/internal/sim"
)

// planner is the allocating reference Planner the strip kernel
// (sessionsolver.go) is tested against: it parameterizes the strip cost
// model from the HAT and the information pool into []HostCost, then
// solves for the time-balanced decomposition with partition.TimeBalanced.
type planner struct {
	tp   *grid.Topology
	tpl  *hat.Template
	info Information
}

// borderBytes returns the per-unit border exchange volume from the HAT's
// neighbor-exchange comm edge (0 when the template has none).
func (pl *planner) borderBytes() float64 {
	b := 0.0
	for _, c := range pl.tpl.Comms {
		if c.Pattern == hat.NeighborExchange {
			b = c.BytesPerUnit
		}
	}
	return b
}

// costsFor builds the per-host cost-model parameters for a chain-ordered
// resource set and problem size n:
//
//	P_i = flop/point / (speed * availability * implementation factor)
//	C_i = sum over strip neighbors of 2*(latency + borderBytes/bandwidth)
//	cap = host memory / bytes per point
func (pl *planner) costsFor(n int, chain []*grid.Host) ([]partition.HostCost, error) {
	task := pl.tpl.Tasks[0]
	borderBytes := pl.borderBytes()
	costs := make([]partition.HostCost, len(chain))
	for i, h := range chain {
		avail := floorAvailability(pl.info.Availability(h.Name))
		speed := h.Speed * avail * task.SpeedFactorOn(h.Arch) // Mflop/s deliverable
		if speed <= 0 {
			return nil, fmt.Errorf("core: host %s has no deliverable speed", h.Name)
		}
		p := task.FlopPerUnit / 1e6 / speed // seconds per point

		comm := 0.0
		edge := float64(n) * borderBytes / 1e6 // MB per border per direction
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= len(chain) {
				continue
			}
			bw := pl.info.RouteBandwidth(h.Name, chain[j].Name)
			if bw <= 0 {
				bw = 1e-6
			}
			lat := pl.info.RouteLatency(h.Name, chain[j].Name)
			comm += 2 * (lat + edge/bw) // send + receive
		}

		capPoints := 0.0
		if task.BytesPerUnit > 0 {
			capPoints = h.MemoryMB * 1e6 / task.BytesPerUnit
		}
		costs[i] = partition.HostCost{
			Host:        h.Name,
			SecPerPoint: p,
			CommSec:     comm,
			MaxPoints:   capPoints,
		}
	}
	return costs, nil
}

// plan produces the strip schedule for one candidate resource set,
// returning the placement, its cost parameters, and the model's predicted
// per-iteration time.
func (pl *planner) plan(n int, chain []*grid.Host) (*partition.Placement, []partition.HostCost, float64, error) {
	costs, err := pl.costsFor(n, chain)
	if err != nil {
		return nil, nil, 0, err
	}
	p, tIter, err := partition.TimeBalanced(n, costs, pl.borderBytes())
	if err != nil {
		return nil, nil, 0, err
	}
	return p, costs, tIter, nil
}

// plannerFixture: two hosts over one dedicated link with known numbers.
func plannerFixture(t *testing.T, loadA load.Source) (*planner, *grid.Topology) {
	t.Helper()
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	tp.AddHost(grid.HostSpec{Name: "a", Arch: "ws", Speed: 10, MemoryMB: 64, Load: loadA})
	tp.AddHost(grid.HostSpec{Name: "b", Arch: "ws", Speed: 20, MemoryMB: 128})
	l := tp.AddLink(grid.LinkSpec{Name: "wire", Latency: 0.01, Bandwidth: 2, Dedicated: true})
	tp.Attach("a", l)
	tp.Attach("b", l)
	tp.Finalize()
	return &planner{tp: tp, tpl: hat.Jacobi2D(1000, 10), info: OracleInformation(tp)}, tp
}

func TestCostsForFormulas(t *testing.T) {
	pl, tp := plannerFixture(t, nil)
	chain := []*grid.Host{tp.Host("a"), tp.Host("b")}
	costs, err := pl.costsFor(1000, chain)
	if err != nil {
		t.Fatal(err)
	}
	// P_a = 10 flop/pt / 1e6 / 10 Mflop/s = 1e-6 s/pt.
	if math.Abs(costs[0].SecPerPoint-1e-6) > 1e-12 {
		t.Fatalf("P_a = %v, want 1e-6", costs[0].SecPerPoint)
	}
	if math.Abs(costs[1].SecPerPoint-0.5e-6) > 1e-12 {
		t.Fatalf("P_b = %v, want 5e-7", costs[1].SecPerPoint)
	}
	// C_i = 2*(latency + edgeMB/bw); edge = 1000 pts * 8 B = 0.008 MB.
	wantC := 2 * (0.01 + 0.008/2.0)
	for i, c := range costs {
		if math.Abs(c.CommSec-wantC) > 1e-12 {
			t.Fatalf("C[%d] = %v, want %v", i, c.CommSec, wantC)
		}
	}
	// Memory cap: 64 MB / 16 B per point = 4e6 points.
	if math.Abs(costs[0].MaxPoints-4e6) > 1 {
		t.Fatalf("cap_a = %v, want 4e6", costs[0].MaxPoints)
	}
}

func TestCostsForAvailabilityDiscount(t *testing.T) {
	pl, tp := plannerFixture(t, load.Constant(1)) // a delivers half speed
	chain := []*grid.Host{tp.Host("a"), tp.Host("b")}
	costs, err := pl.costsFor(1000, chain)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costs[0].SecPerPoint-2e-6) > 1e-12 {
		t.Fatalf("loaded P_a = %v, want 2e-6", costs[0].SecPerPoint)
	}
}

func TestCostsForEndsOfChainHaveOneNeighbor(t *testing.T) {
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 1, Quiet: true})
	pl := &planner{tp: tp, tpl: hat.Jacobi2D(500, 10), info: OracleInformation(tp)}
	var chain []*grid.Host
	for _, n := range []string{"alpha1", "alpha2", "alpha3"} {
		chain = append(chain, tp.Host(n))
	}
	costs, err := pl.costsFor(500, chain)
	if err != nil {
		t.Fatal(err)
	}
	// Middle host pays two borders, ends one.
	if costs[1].CommSec <= costs[0].CommSec {
		t.Fatalf("middle comm %v <= end comm %v", costs[1].CommSec, costs[0].CommSec)
	}
	if math.Abs(costs[1].CommSec-2*costs[0].CommSec) > 1e-12 {
		t.Fatalf("middle comm %v, want twice end %v", costs[1].CommSec, costs[0].CommSec)
	}
}

func TestPlanProducesBalancedStrips(t *testing.T) {
	pl, tp := plannerFixture(t, nil)
	chain := []*grid.Host{tp.Host("a"), tp.Host("b")}
	p, costs, tIter, err := pl.plan(1000, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if tIter <= 0 {
		t.Fatalf("predicted iteration %v", tIter)
	}
	// b is twice as fast: roughly 2/3 of the domain.
	if f := p.Fraction("b"); math.Abs(f-2.0/3) > 0.02 {
		t.Fatalf("b fraction %v, want ~0.667", f)
	}
	_ = costs
}
