package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// timeBalancedOneAtATime is TimeBalanced with each re-solve dropping
// only the single most negative host: the reference the one-pass drop
// of every negative host must match bit for bit.
func timeBalancedOneAtATime(n int, costs []HostCost, borderBytesPerPoint float64) (*Placement, float64, error) {
	if len(costs) == 0 {
		return nil, 0, fmt.Errorf("partition: no hosts")
	}
	for _, c := range costs {
		if c.SecPerPoint <= 0 {
			return nil, 0, fmt.Errorf("partition: host %s has non-positive P_i", c.Host)
		}
		if c.CommSec < 0 {
			return nil, 0, fmt.Errorf("partition: host %s has negative C_i", c.Host)
		}
	}
	total := float64(n) * float64(n)
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
			relaxed[i].MaxPoints *= scale * 1.0001
		}
	}
	area := make([]float64, len(relaxed))
	state := make([]int, len(relaxed))
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
		worstNeg, worstNegIdx := 0.0, -1
		worstOver, worstOverIdx := 0.0, -1
		for i, c := range relaxed {
			if state[i] != 0 {
				continue
			}
			a := (T - c.CommSec) / c.SecPerPoint
			area[i] = a
			if a < 0 && a < worstNeg {
				worstNeg, worstNegIdx = a, i
			}
			if c.MaxPoints > 0 && a > c.MaxPoints {
				if over := a - c.MaxPoints; over > worstOver {
					worstOver, worstOverIdx = over, i
				}
			}
		}
		if worstNegIdx >= 0 {
			state[worstNegIdx] = 1
			area[worstNegIdx] = 0
			continue
		}
		if worstOverIdx >= 0 {
			state[worstOverIdx] = 2
			area[worstOverIdx] = relaxed[worstOverIdx].MaxPoints
			remaining -= relaxed[worstOverIdx].MaxPoints
			continue
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

// logUniform draws from [lo, hi) evenly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// randomCosts draws one strip cost instance: per-point costs over two
// decades, communication costs from negligible to far above the
// balanced time (so hosts drop, often several at once), and memory caps
// that are absent, loose, binding, or jointly too small for the domain
// (so capacities relax). One instance in fifty is a 1000+ host chain.
func randomCosts(rng *rand.Rand) (int, []HostCost) {
	n := 1 + rng.Intn(3000)
	k := 1 + rng.Intn(16)
	if rng.Intn(50) == 0 {
		k = 1000 + rng.Intn(600)
	}
	share := float64(n) * float64(n) / float64(k)
	capMode := rng.Intn(4)
	costs := make([]HostCost, k)
	for i := range costs {
		c := HostCost{
			Host:        fmt.Sprintf("h%d", i),
			SecPerPoint: logUniform(rng, 1e-7, 1e-5),
		}
		if rng.Intn(4) > 0 {
			c.CommSec = logUniform(rng, 1e-6, 10)
		}
		switch capMode {
		case 1:
			c.MaxPoints = share * logUniform(rng, 1, 4)
		case 2:
			c.MaxPoints = share * logUniform(rng, 0.2, 2)
		case 3:
			c.MaxPoints = share * logUniform(rng, 0.05, 0.8)
		}
		costs[i] = c
	}
	return n, costs
}

// TestTimeBalancedMatchesOneAtATime pins the one-pass negative drop to
// the one-at-a-time oracle on seeded random instances: the same error
// (or none), the same balanced time bit for bit, and the same placement.
func TestTimeBalancedMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	mismatches, dropped := 0, 0
	for trial := 0; trial < trials; trial++ {
		n, costs := randomCosts(rng)
		got, gotT, gotErr := TimeBalanced(n, costs, 8)
		want, wantT, wantErr := timeBalancedOneAtATime(n, costs, 8)
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr == nil && (math.Float64bits(gotT) != math.Float64bits(wantT) || !reflect.DeepEqual(got, want))) {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("trial %d (n=%d, k=%d): batch (%v, %v) vs one-at-a-time (%v, %v)",
					trial, n, len(costs), gotT, gotErr, wantT, wantErr)
			}
			continue
		}
		if gotErr == nil && len(got.Assignments) < len(costs) {
			dropped++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d mismatches", mismatches, trials)
	}
	if dropped == 0 {
		t.Fatal("every host kept a band in every instance; the generator does not exercise the drop")
	}
	t.Logf("%d trials, 0 mismatches, %d with hosts left out of the placement", trials, dropped)
}
