package partition

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestHostileInputRejected feeds WeightedStrip and TimeBalanced inputs
// that are not finite, or whose balance overflows the float range, in
// the style of a table of hostile cases. Each must return an error
// within its deadline: a NaN or +Inf weight once reached
// largestRemainder, where int(NaN) sums sent its degenerate-dump loop
// through about 2^63 steps, and {NaN, NaN, 1} returned a placement with
// no error.
func TestHostileInputRejected(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	hosts := []string{"a", "b", "c"}
	costs := func(secPP, commSec []float64) []HostCost {
		cs := make([]HostCost, len(secPP))
		for i := range cs {
			cs[i] = HostCost{Host: hosts[i], SecPerPoint: secPP[i], CommSec: commSec[i]}
		}
		return cs
	}
	testCases := []struct {
		name    string
		weights []float64 // WeightedStrip's; nil asks TimeBalanced
		secPP   []float64
		commSec []float64
	}{
		{name: "weight-nan", weights: []float64{nan, 1, 1}},
		{name: "weight-inf", weights: []float64{inf, 1, 1}},
		{name: "weight-two-nan", weights: []float64{nan, nan, 1}},
		{name: "weight-neg-inf", weights: []float64{math.Inf(-1), 1, 1}},
		{name: "weight-sum-overflow", weights: []float64{math.MaxFloat64, math.MaxFloat64, 1}},
		{name: "secpp-nan", secPP: []float64{nan, 1e-6, 1e-6}, commSec: []float64{0.01, 0.01, 0.01}},
		{name: "secpp-inf", secPP: []float64{inf, 1e-6, 1e-6}, commSec: []float64{0.01, 0.01, 0.01}},
		{name: "comm-nan", secPP: []float64{1e-6, 1e-6, 1e-6}, commSec: []float64{nan, 0.01, 0.01}},
		{name: "comm-inf", secPP: []float64{1e-6, 1e-6, 1e-6}, commSec: []float64{inf, 0.01, 0.01}},
		{name: "balance-overflow", secPP: []float64{1e-300, 1e-300, 1e-300}, commSec: []float64{1e300, 1e300, 1e300}},
	}
	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				var (
					p   *Placement
					err error
				)
				if tc.weights != nil {
					p, err = WeightedStrip(100, hosts, tc.weights, 8)
				} else {
					p, _, err = TimeBalanced(100, costs(tc.secPP, tc.commSec), 8)
				}
				if err == nil {
					err = fmt.Errorf("accepted, placed %v", p)
				} else {
					err = nil
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("did not return within 2 s")
			}
		})
	}
}
