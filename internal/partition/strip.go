package partition

import (
	"fmt"
	"math"
)

// HostCost is the Planner's per-host parameterization of the paper's strip
// cost model T_i = A_i*P_i + C_i.
type HostCost struct {
	Host string
	// SecPerPoint is P_i: forecast seconds to compute one grid point
	// (base per-point cost divided by forecast availability).
	SecPerPoint float64
	// CommSec is C_i: forecast seconds per iteration to send and receive
	// the host's strip borders.
	CommSec float64
	// MaxPoints caps the strip by host memory (0 = unbounded).
	MaxPoints float64
}

// stripFromRows assembles a strip Placement from per-host row counts,
// dropping zero-row hosts and wiring neighbor borders. Strips are
// contiguous row bands in the order given; each interior boundary
// exchanges n*borderBytesPerPoint bytes each way per iteration.
func stripFromRows(n int, hosts []string, rows []int, borderBytesPerPoint float64) *Placement {
	p := &Placement{N: n, Kind: "strip"}
	type live struct {
		host string
		rows int
	}
	bands := make([]live, 0, len(hosts))
	for i, h := range hosts {
		if rows[i] > 0 {
			bands = append(bands, live{h, rows[i]})
		}
	}
	edge := float64(n) * borderBytesPerPoint
	p.Assignments = make([]Assignment, 0, len(bands))
	for i, b := range bands {
		a := Assignment{Host: b.host, Rows: b.rows, Points: b.rows * n}
		if i > 0 || i < len(bands)-1 {
			a.Borders = make([]Border, 0, 2)
		}
		if i > 0 {
			a.Borders = append(a.Borders, Border{Peer: bands[i-1].host, Bytes: edge})
		}
		if i < len(bands)-1 {
			a.Borders = append(a.Borders, Border{Peer: bands[i+1].host, Bytes: edge})
		}
		p.Assignments = append(p.Assignments, a)
	}
	return p
}

// UniformStrip splits the n x n domain into equal row bands across hosts.
func UniformStrip(n int, hosts []string, borderBytesPerPoint float64) (*Placement, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("partition: no hosts")
	}
	if n < len(hosts) {
		return nil, fmt.Errorf("partition: %d rows cannot cover %d hosts", n, len(hosts))
	}
	w := make([]float64, len(hosts))
	for i := range w {
		w[i] = 1
	}
	rows := largestRemainder(w, n)
	return stripFromRows(n, hosts, rows, borderBytesPerPoint), nil
}

// WeightedStrip assigns row bands proportional to the given weights — the
// paper's static "Non-uniform Strip" partition (Figure 4), computed at
// compile time from dedicated CPU speeds (optionally discounted by
// dedicated link bandwidth, which is folded into the weights by the
// caller).
func WeightedStrip(n int, hosts []string, weights []float64, borderBytesPerPoint float64) (*Placement, error) {
	if len(hosts) == 0 || len(hosts) != len(weights) {
		return nil, fmt.Errorf("partition: hosts/weights mismatch (%d vs %d)", len(hosts), len(weights))
	}
	sum := 0.0
	for i, w := range weights {
		if !finite(w) {
			return nil, fmt.Errorf("partition: host %s has non-finite weight %v", hosts[i], w)
		}
		if w < 0 {
			return nil, fmt.Errorf("partition: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("partition: all weights zero")
	}
	if !finite(sum) {
		return nil, fmt.Errorf("partition: weights overflow their sum")
	}
	rows := largestRemainder(weights, n)
	return stripFromRows(n, hosts, rows, borderBytesPerPoint), nil
}

// TimeBalanced solves the paper's cost model for the strip areas that
// equalize per-iteration completion time across hosts:
//
//	T_i = A_i*P_i + C_i  ->  A_i = (T - C_i)/P_i,  sum A_i = n^2
//
// Hosts whose balanced share would be negative (too slow or too expensive
// to reach) are dropped together and the system re-solved; hosts whose share would
// exceed their memory capacity are clamped to it and the remainder
// redistributed (this is what lets Figure 6's AppLeS schedule overflow the
// SP-2 gracefully instead of spilling).
//
// It returns the placement, the predicted per-iteration time, and an error
// when no feasible assignment exists. If the aggregate memory of all hosts
// cannot hold the domain, capacity constraints are relaxed in proportion —
// the schedule will spill, but it remains balanced.
func TimeBalanced(n int, costs []HostCost, borderBytesPerPoint float64) (*Placement, float64, error) {
	if len(costs) == 0 {
		return nil, 0, fmt.Errorf("partition: no hosts")
	}
	for _, c := range costs {
		// A non-finite P_i or C_i balances to NaN areas, which rounding
		// cannot place.
		if !finite(c.SecPerPoint) || !finite(c.CommSec) {
			return nil, 0, fmt.Errorf("partition: host %s has non-finite P_i or C_i", c.Host)
		}
		if c.SecPerPoint <= 0 {
			return nil, 0, fmt.Errorf("partition: host %s has non-positive P_i", c.Host)
		}
		if c.CommSec < 0 {
			return nil, 0, fmt.Errorf("partition: host %s has negative C_i", c.Host)
		}
	}
	total := float64(n) * float64(n)

	// Relax capacities when the whole pool cannot hold the domain.
	capTotal, unbounded := 0.0, false
	for _, c := range costs {
		if c.MaxPoints <= 0 {
			unbounded = true
			break
		}
		capTotal += c.MaxPoints
	}
	relaxed := make([]HostCost, len(costs))
	copy(relaxed, costs)
	if !unbounded && capTotal < total {
		scale := total / capTotal
		for i := range relaxed {
			relaxed[i].MaxPoints *= scale * 1.0001 // headroom for rounding
		}
	}

	area := make([]float64, len(relaxed))
	state := make([]int, len(relaxed)) // 0 active, 1 dropped, 2 capped
	remaining := total
	for iter := 0; iter < 4*len(relaxed)+4; iter++ {
		sumInvP, sumCoverP := 0.0, 0.0
		active := 0
		for i, c := range relaxed {
			if state[i] != 0 {
				continue
			}
			active++
			sumInvP += 1 / c.SecPerPoint
			sumCoverP += c.CommSec / c.SecPerPoint
		}
		if active == 0 {
			break
		}
		T := (remaining + sumCoverP) / sumInvP
		dropped := false
		worstOver, worstOverIdx := 0.0, -1
		for i, c := range relaxed {
			if state[i] != 0 {
				continue
			}
			a := (T - c.CommSec) / c.SecPerPoint
			area[i] = a
			if a < 0 {
				// Too slow to be worth its communication cost: drop it.
				// Dropping a host with C_i > T strictly lowers T, so every
				// host negative now stays negative after the re-solve —
				// dropping them all at once reaches the same active set
				// as dropping the worst one per re-solve.
				state[i] = 1
				area[i] = 0
				dropped = true
				continue
			}
			if c.MaxPoints > 0 && a > c.MaxPoints {
				if over := a - c.MaxPoints; over > worstOver {
					worstOver, worstOverIdx = over, i
				}
			}
		}
		if dropped {
			continue
		}
		if worstOverIdx >= 0 {
			// Memory-capped: pin at capacity and redistribute the rest.
			state[worstOverIdx] = 2
			area[worstOverIdx] = relaxed[worstOverIdx].MaxPoints
			remaining -= relaxed[worstOverIdx].MaxPoints
			continue
		}
		// Converged. A balance that overflowed (C_i/P_i or 1/P_i beyond
		// the float range) leaves areas rounding cannot place.
		for _, a := range area {
			if !finite(a) {
				return nil, 0, fmt.Errorf("partition: time-balance solve overflowed")
			}
		}
		hosts := make([]string, len(relaxed))
		for i, c := range relaxed {
			hosts[i] = c.Host
		}
		rows := largestRemainder(area, n)
		p := stripFromRows(n, hosts, rows, borderBytesPerPoint)
		if p.TotalPoints() != n*n {
			return nil, 0, fmt.Errorf("partition: internal rounding error")
		}
		if len(p.Assignments) == 0 {
			return nil, 0, fmt.Errorf("partition: every host dropped")
		}
		return p, T, nil
	}
	return nil, 0, fmt.Errorf("partition: time-balance solve did not converge")
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// PredictStripTime evaluates the cost model for an existing strip
// placement: the predicted per-iteration time is max_i (A_i*P_i + C_i)
// over hosts with work. Hosts absent from costs are assumed infinitely
// slow (returns +Inf), which penalizes schedules using unknown machines.
func PredictStripTime(p *Placement, costs []HostCost) float64 {
	byHost := map[string]HostCost{}
	for _, c := range costs {
		byHost[c.Host] = c
	}
	worst := 0.0
	for _, a := range p.Assignments {
		if a.Points == 0 {
			continue
		}
		c, ok := byHost[a.Host]
		if !ok {
			return math.Inf(1)
		}
		t := float64(a.Points)*c.SecPerPoint + c.CommSec
		if t > worst {
			worst = t
		}
	}
	return worst
}
