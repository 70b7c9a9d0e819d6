package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"apples/internal/core"
)

// decision is one scheduling decision as the digest and the output
// checks see it.
type decision struct {
	Tenant    string // service-mixed only
	Seq       uint64 // service-mixed only
	Hosts     []string
	Rows      string // "host:rows/points" per assignment, in placement order
	Predicted float64
	Measured  float64 // simulated Jacobi seconds; fig2-round only
}

// newDecision checks a schedule the program returned and flattens it.
// pool names the hosts the workload offered; every chosen host must be
// one of them, and the placement must cover the whole grid.
func newDecision(s *core.Schedule, pool map[string]bool) (decision, error) {
	if s == nil || s.Placement == nil {
		return decision{}, fmt.Errorf("no schedule")
	}
	if err := s.Placement.Validate(); err != nil {
		return decision{}, err
	}
	if p := s.PredictedTotal; !(p > 0) || math.IsInf(p, 1) {
		return decision{}, fmt.Errorf("predicted total %v is not a positive finite time", p)
	}
	if len(s.Hosts) == 0 {
		return decision{}, fmt.Errorf("empty host list")
	}
	seen := make(map[string]bool, len(s.Hosts))
	for _, h := range s.Hosts {
		if !pool[h] || seen[h] {
			return decision{}, fmt.Errorf("host %q is outside the pool or chosen twice", h)
		}
		seen[h] = true
	}
	var rows strings.Builder
	for _, a := range s.Placement.Assignments {
		if !seen[a.Host] && a.Points > 0 {
			return decision{}, fmt.Errorf("placement gives work to unselected host %q", a.Host)
		}
		fmt.Fprintf(&rows, "%s:%d/%d,", a.Host, a.Rows, a.Points)
	}
	return decision{Hosts: append([]string(nil), s.Hosts...), Rows: rows.String(), Predicted: s.PredictedTotal}, nil
}

// digest hashes decisions in order: hosts and placement rows, plus the
// tenant and sequence number for service rounds. Predicted times are
// left out, so a change that only reorders floating-point work keeps
// the digest as long as every decision stays the same.
func digest(ds []decision) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s#%d %s %s\n", d.Tenant, d.Seq, strings.Join(d.Hosts, ","), d.Rows)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sortDecisions orders service decisions by (tenant, seq): the service
// completes different tenants' rounds in any order. Decisions without a
// tenant keep their op order.
func sortDecisions(ds []decision) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Tenant != ds[j].Tenant {
			return ds[i].Tenant < ds[j].Tenant
		}
		return ds[i].Seq < ds[j].Seq
	})
}

// goldenJSON holds the committed decision digests: seed -> workload ->
// digest of the workload's first prefix decisions.
//
//go:embed testdata/digests.json
var goldenJSON []byte

type goldens map[string]map[string]string

func loadGoldens(data []byte) (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decode golden digests: %w", err)
	}
	return g, nil
}

// lookup returns the committed digest for (seed, workload).
func (g goldens) lookup(seed int64, workload string) (string, bool) {
	d, ok := g[strconv.FormatInt(seed, 10)][workload]
	return d, ok
}

// updateGolden records digest for (seed, workload) in the file at path.
func updateGolden(path string, seed int64, workload, dg string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	g, err := loadGoldens(data)
	if err != nil {
		return err
	}
	key := strconv.FormatInt(seed, 10)
	if g[key] == nil {
		g[key] = map[string]string{}
	}
	g[key][workload] = dg
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
