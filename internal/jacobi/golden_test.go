package jacobi

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"apples/internal/grid"
	"apples/internal/partition"
	"apples/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRun is one recorded simulated run: the clock it started at, the
// events it dispatched, and its times as IEEE-754 bit patterns, so the
// comparison is exact rather than within a tolerance.
type goldenRun struct {
	Seed      int64    `json:"seed"`
	Placement string   `json:"placement"`
	Start     string   `json:"start"`
	Fired     uint64   `json:"fired"`
	Time      string   `json:"time"`
	IterTimes []string `json:"iter_times"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenPlacements are fixed placements on the SDSC/PCL testbed: the
// whole pool, a speed-weighted strip over the fast hosts, a pair of
// PCL workstations whose strip spills out of sparc2's memory, and a
// two-host strip across the WAN.
func goldenPlacements() []struct {
	name string
	mk   func() (*partition.Placement, error)
} {
	all := []string{"sparc2", "sparc10", "rs6000a", "rs6000b", "alpha1", "alpha2", "alpha3", "alpha4"}
	return []struct {
		name string
		mk   func() (*partition.Placement, error)
	}{
		{"uniform-all", func() (*partition.Placement, error) { return partition.UniformStrip(2000, all, 8) }},
		{"weighted-fast", func() (*partition.Placement, error) {
			return partition.WeightedStrip(2000, []string{"rs6000a", "rs6000b", "alpha1", "alpha2", "alpha3", "alpha4"},
				[]float64{25, 25, 40, 40, 40, 40}, 8)
		}},
		{"uniform-pcl-suns", func() (*partition.Placement, error) {
			return partition.UniformStrip(2000, []string{"sparc2", "sparc10"}, 8)
		}},
		{"uniform-wan-pair", func() (*partition.Placement, error) {
			return partition.UniformStrip(1200, []string{"rs6000a", "alpha1"}, 8)
		}},
	}
}

// recordGoldenRuns executes every golden placement back to back on one
// loaded SDSC/PCL testbed per seed, first from t = 300 s and again
// after jumping the clock past 1e5 s, where the clock's resolution is
// coarser.
func recordGoldenRuns(t *testing.T) []goldenRun {
	var out []goldenRun
	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine()
		eng.SetEventLimit(1 << 22)
		tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: seed})
		for _, at := range []float64{300, 1.2e5} {
			if err := eng.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			for _, pl := range goldenPlacements() {
				p, err := pl.mk()
				if err != nil {
					t.Fatal(err)
				}
				start, fired := eng.Now(), eng.Fired()
				res, err := Run(tp, p, Config{Iterations: 40})
				if err != nil {
					t.Fatalf("seed %d %s at %v: %v", seed, pl.name, start, err)
				}
				g := goldenRun{Seed: seed, Placement: pl.name, Start: bits(start),
					Fired: eng.Fired() - fired, Time: bits(res.Time)}
				for _, it := range res.IterTimes {
					g.IterTimes = append(g.IterTimes, bits(it))
				}
				out = append(out, g)
			}
		}
	}
	return out
}

// TestGoldenRuns pins the simulator: fixed placements on the seeded
// SDSC/PCL testbed must reproduce every iteration time bit for bit and
// dispatch exactly the recorded number of events. Regenerate with
// `go test ./internal/jacobi -run GoldenRuns -update` only for an
// intended change to the simulated model.
func TestGoldenRuns(t *testing.T) {
	got := recordGoldenRuns(t)
	golden := filepath.Join("testdata", "golden_runs.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d (seed %d %s) diverged:\ngot  %+v\nwant %+v",
				i, want[i].Seed, want[i].Placement, got[i], want[i])
		}
	}
}

// TestRunsAtCoarseClock runs the golden placements from t = 2.7e5 s,
// where the clock's ulp is 2^-34 s. Before completions that cannot
// advance the clock finished their tasks, seed 2's first run there
// spun at one instant until the event cap.
func TestRunsAtCoarseClock(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine()
		eng.SetEventLimit(1 << 16)
		tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: seed})
		if err := eng.RunUntil(2.7e5); err != nil {
			t.Fatal(err)
		}
		for _, pl := range goldenPlacements() {
			p, err := pl.mk()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(tp, p, Config{Iterations: 40}); err != nil {
				t.Fatalf("seed %d %s: %v after %d events", seed, pl.name, err, eng.Fired())
			}
		}
	}
}
