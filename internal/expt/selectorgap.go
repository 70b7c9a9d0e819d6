package expt

import (
	"fmt"
	"strings"

	"apples/internal/core"
)

// SelectorGapRow is one pool size of the selector optimality-gap
// experiment: mean predicted execution time under the exhaustive
// selector, and the mean relative gap of each heuristic family.
type SelectorGapRow struct {
	Hosts      int
	Exhaustive float64 // mean predicted time, seconds
	GreedyGap  float64 // mean (greedy - exhaustive)/exhaustive, percent
	BeamGap    float64
	LPGAGap    float64
}

var selectorGapSpecs = []struct {
	name string
	spec core.SelectorSpec
}{
	{"greedy", core.SelectorSpec{Kind: core.SelectorGreedy}},
	{"beam", core.SelectorSpec{Kind: core.SelectorBeam, BeamWidth: 8}},
	{"lpga", core.SelectorSpec{Kind: core.SelectorLPGA, Seed: 1}},
}

// SelectorGap measures the optimality gap of the heuristic selector
// families against exhaustive subset enumeration on pools small enough
// to enumerate (<= 12 hosts): the same warmed scenario is scheduled
// under each selector and the predicted times are compared. Gaps are
// averaged across seeds.
func SelectorGap(sizes [][2]int, n int, seeds []int64) ([]SelectorGapRow, error) {
	if len(sizes) == 0 {
		sizes = [][2]int{{1, 4}, {2, 3}, {2, 4}, {2, 5}, {3, 4}}
	}
	if n == 0 {
		n = 2000
	}
	if len(seeds) == 0 {
		seeds = []int64{11, 23, 37}
	}
	schedule := func(clusters, per int, seed int64, spec core.SelectorSpec) (float64, error) {
		agent, err := NewScaleAgent(clusters, per, n, seed, core.WithSelector(spec))
		if err != nil {
			return 0, err
		}
		sched, err := agent.Schedule(n)
		if err != nil {
			return 0, fmt.Errorf("selector gap %dx%d: %w", clusters, per, err)
		}
		return sched.PredictedTotal, nil
	}
	var rows []SelectorGapRow
	for _, cp := range sizes {
		row := SelectorGapRow{Hosts: cp[0] * cp[1]}
		gaps := map[string]float64{}
		for _, seed := range seeds {
			exact, err := schedule(cp[0], cp[1], seed, core.SelectorSpec{Kind: core.SelectorExhaustive})
			if err != nil {
				return nil, err
			}
			row.Exhaustive += exact / float64(len(seeds))
			for _, s := range selectorGapSpecs {
				pred, err := schedule(cp[0], cp[1], seed, s.spec)
				if err != nil {
					return nil, err
				}
				gaps[s.name] += 100 * (pred - exact) / exact / float64(len(seeds))
			}
		}
		row.GreedyGap, row.BeamGap, row.LPGAGap = gaps["greedy"], gaps["beam"], gaps["lpga"]
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSelectorGap renders the optimality-gap table.
func FormatSelectorGap(rows []SelectorGapRow) string {
	var sb strings.Builder
	sb.WriteString("Selector optimality gap vs exhaustive enumeration (predicted time, mean over seeds)\n")
	sb.WriteString("  hosts  exhaustive(s)  greedy(%)  beam(%)  lpga(%)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %5d  %13.2f  %+9.2f  %+7.2f  %+7.2f\n",
			r.Hosts, r.Exhaustive, r.GreedyGap, r.BeamGap, r.LPGAGap)
	}
	return sb.String()
}

// SelectorGapCSV flattens the gap table for CSV export.
func SelectorGapCSV(rows []SelectorGapRow) ([]string, [][]string) {
	header := []string{"hosts", "exhaustive_s", "greedy_gap_pct", "beam_gap_pct", "lpga_gap_pct"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Hosts),
			fmt.Sprintf("%.4f", r.Exhaustive),
			fmt.Sprintf("%.4f", r.GreedyGap),
			fmt.Sprintf("%.4f", r.BeamGap),
			fmt.Sprintf("%.4f", r.LPGAGap),
		})
	}
	return header, cells
}
