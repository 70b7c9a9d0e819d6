package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/load"
	"apples/internal/react"
	"apples/internal/sim"
	"apples/internal/userspec"
)

func casaAgent(t *testing.T, spec *userspec.Spec) (*PipelineAgent, *grid.Topology) {
	t.Helper()
	tp := grid.CASA(sim.NewEngine())
	if spec == nil {
		spec = &userspec.Spec{}
	}
	a, err := NewPipelineAgent(tp, hat.React3D(600), spec, OracleInformation(tp), react.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, tp
}

func TestPipelineAgentPicksPaperMapping(t *testing.T) {
	a, _ := casaAgent(t, nil)
	s, err := a.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.SingleSite != "" {
		t.Fatalf("agent fell back to single-site %s", s.SingleSite)
	}
	if s.Producer != "c90" || s.Consumer != "paragon" {
		t.Fatalf("mapping %s->%s, want c90->paragon", s.Producer, s.Consumer)
	}
	if s.Unit < 5 || s.Unit > 20 {
		t.Fatalf("unit %d outside the template's 5-20 range", s.Unit)
	}
	// 2 singles + 2 ordered pairs.
	if s.CandidatesConsidered != 4 {
		t.Fatalf("considered %d candidates, want 4", s.CandidatesConsidered)
	}
	if !strings.Contains(s.String(), "c90->paragon") {
		t.Fatalf("schedule string %q", s.String())
	}
}

func TestPipelineAgentRunMeasures(t *testing.T) {
	a, _ := casaAgent(t, nil)
	s, measured, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if measured <= 0 {
		t.Fatalf("measured %v", measured)
	}
	// The simulated pipeline matches the model within a few percent.
	if ratio := measured / s.Predicted; ratio > 1.1 || ratio < 0.9 {
		t.Fatalf("measured %v vs predicted %v", measured, s.Predicted)
	}
	// And it reproduces the headline: under 5 hours distributed.
	if measured/3600 > 5.3 {
		t.Fatalf("distributed run %.2f h, want < ~5", measured/3600)
	}
}

func TestPipelineAgentSingleSiteWhenPeerExcluded(t *testing.T) {
	a, _ := casaAgent(t, &userspec.Spec{Excluded: []string{"paragon"}})
	s, err := a.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.SingleSite != "c90" {
		t.Fatalf("schedule %v, want single-site c90", s)
	}
	_, measured, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if measured/3600 < 15 {
		t.Fatalf("single-site run %.2f h, want >15", measured/3600)
	}
}

func TestPipelineAgentAvoidsLoadedMachine(t *testing.T) {
	// Three identical machines, one crushed by load: the mapping must use
	// the two free ones.
	eng := sim.NewEngine()
	tp := grid.NewTopology(eng)
	for _, spec := range []grid.HostSpec{
		{Name: "m1", Arch: "c90", Site: "x", Speed: 450, MemoryMB: 4096, Load: load.Constant(9)},
		{Name: "m2", Arch: "c90", Site: "x", Speed: 450, MemoryMB: 4096},
		{Name: "m3", Arch: "paragon", Site: "x", Speed: 480, MemoryMB: 4096},
	} {
		tp.AddHost(spec)
	}
	l := tp.AddLink(grid.LinkSpec{Name: "net", Latency: 0.01, Bandwidth: 25, Dedicated: true})
	for _, h := range []string{"m1", "m2", "m3"} {
		tp.Attach(h, l)
	}
	tp.Finalize()

	a, err := NewPipelineAgent(tp, hat.React3D(600), &userspec.Spec{}, OracleInformation(tp), react.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.Producer == "m1" || s.Consumer == "m1" {
		t.Fatalf("agent mapped onto the loaded machine: %v", s)
	}
	if s.Producer != "m2" || s.Consumer != "m3" {
		t.Fatalf("mapping %s->%s, want m2->m3 (vector LHSF, MPP Log-D)", s.Producer, s.Consumer)
	}
}

func TestPipelineAgentRejectsBadTemplates(t *testing.T) {
	tp := grid.CASA(sim.NewEngine())
	if _, err := NewPipelineAgent(tp, hat.Jacobi2D(100, 1), &userspec.Spec{}, OracleInformation(tp), react.Options{}); err == nil {
		t.Fatal("data-parallel template accepted")
	}
	bad := hat.React3D(100)
	bad.Comms = nil
	if _, err := NewPipelineAgent(tp, bad, &userspec.Spec{}, OracleInformation(tp), react.Options{}); err == nil {
		t.Fatal("template without pipeline edge accepted")
	}
}

func TestPipelineAgentEmptyPool(t *testing.T) {
	a, _ := casaAgent(t, &userspec.Spec{Accessible: []string{"ghost"}})
	if _, err := a.Schedule(); err == nil {
		t.Fatal("empty pool accepted")
	}
}

// TestPipelineHeuristicPairFamily pins the pair family of a heuristic
// pipeline round on a pool larger than pipelinePairHosts: a greedy
// agent on a 64-host NWS pool considers every single machine plus the
// ordered pairs among the 32 hosts with the largest
// Speed·floorAvailability(forecast), ties by name, and nothing else; and
// its ranking (Candidates(0)) is the one the name-keyed pair selector
// produced, pinned by its leading entries and a digest of every entry's
// hosts, unit, prediction and score bits.
func TestPipelineHeuristicPairFamily(t *testing.T) {
	tp, info := buildPool(t, 8, 8, 11)
	a, err := NewPipelineAgent(tp, hat.React3D(600), &userspec.Spec{}, info, react.Options{},
		WithSelector(SelectorSpec{Kind: SelectorGreedy}))
	if err != nil {
		t.Fatal(err)
	}
	pool := a.spec.Filter(tp.Hosts())
	if len(pool) <= pipelinePairHosts {
		t.Fatalf("pool of %d hosts does not exceed the pair family's %d", len(pool), pipelinePairHosts)
	}
	s, err := a.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pool) + pipelinePairHosts*(pipelinePairHosts-1); s.CandidatesConsidered != want {
		t.Fatalf("considered %d mappings, want %d", s.CandidatesConsidered, want)
	}

	view := roundSnapshot(info, pool)
	byEff := append([]*grid.Host(nil), pool...)
	eff := func(h *grid.Host) float64 { return h.Speed * floorAvailability(view.Availability(h.Name)) }
	sort.Slice(byEff, func(i, j int) bool {
		if ei, ej := eff(byEff[i]), eff(byEff[j]); ei != ej {
			return ei > ej
		}
		return byEff[i].Name < byEff[j].Name
	})
	top := map[string]bool{}
	for _, h := range byEff[:pipelinePairHosts] {
		top[h.Name] = true
	}

	cands, err := a.Candidates(0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	digest := fnv.New64a()
	for _, c := range cands {
		if len(c.Hosts) == 2 {
			pairs++
			if !top[c.Hosts[0]] || !top[c.Hosts[1]] || c.Hosts[0] == c.Hosts[1] {
				t.Fatalf("pair %v is not two distinct hosts of the top %d", c.Hosts, pipelinePairHosts)
			}
		}
		fmt.Fprintf(digest, "%s|%d|%x|%x\n", strings.Join(c.Hosts, ","), c.Unit,
			math.Float64bits(c.PredictedTotal), math.Float64bits(c.Score))
	}
	if len(cands) != s.CandidatesConsidered || pairs != pipelinePairHosts*(pipelinePairHosts-1) {
		t.Fatalf("%d candidates, %d pairs", len(cands), pairs)
	}
	lead := []struct {
		hosts string
		unit  int
		score uint64
	}{
		{"site5-h6,site1-h6", 5, 0x410aea9bddbe79fe},
		{"site1-h6,site5-h6", 5, 0x410b173bddbe79fe},
		{"site5-h6,site3-h3", 5, 0x410bc96c2d68336e},
		{"site1-h6,site3-h3", 5, 0x410bd0a25e631f25},
	}
	for i, w := range lead {
		c := cands[i]
		if strings.Join(c.Hosts, ",") != w.hosts || c.Unit != w.unit || math.Float64bits(c.Score) != w.score {
			t.Fatalf("rank %d: %v unit %d score %#x, want %s unit %d score %#x",
				i, c.Hosts, c.Unit, math.Float64bits(c.Score), w.hosts, w.unit, w.score)
		}
	}
	if got := digest.Sum64(); got != 0xfe986e6cb20cb7dd {
		t.Fatalf("ranking digest %#x, want 0xfe986e6cb20cb7dd", got)
	}
}
