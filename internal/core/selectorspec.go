package core

import (
	"fmt"
	"strings"
)

// SelectorKind names a candidate-enumeration strategy for the blueprint
// agents' Resource Selector.
type SelectorKind string

const (
	// SelectorExhaustive reproduces the paper's prototype: every
	// non-empty subset on pools up to 12 hosts (ranked by aggregate
	// desirability), desirability prefixes beyond. The default.
	SelectorExhaustive SelectorKind = "exhaustive"
	// SelectorGreedy enumerates desirability prefixes plus a
	// marginal-gain grown chain — O(pool) candidate sets, the selector
	// for interactive rounds on 100–4096-host grids.
	SelectorGreedy SelectorKind = "greedy"
	// SelectorBeam runs a width-W beam search over add/drop/swap moves
	// under a communication-aware surrogate objective, emitting each
	// surviving beam state as a candidate.
	SelectorBeam SelectorKind = "beam"
	// SelectorLPGA seeds a genetic algorithm from an LP-relaxation
	// threshold sweep of the desirability ranking (after Garg et al.'s
	// LP-driven GA for utility-grid meta-scheduling) and emits each new
	// individual as a candidate. Deterministic for a fixed Seed.
	SelectorLPGA SelectorKind = "lpga"
)

// SelectorSpec selects and parameterizes the Resource Selector a
// blueprint agent binds each scheduling round. The zero value means
// exhaustive with default parameters; pass it through WithSelector.
type SelectorSpec struct {
	Kind SelectorKind
	// BeamWidth is the number of beam states kept per iteration
	// (SelectorBeam; default 8). The pipeline blueprint also uses it to
	// size its pair-enumeration cutoff under heuristic selectors.
	BeamWidth int
	// Seed drives SelectorLPGA's rounding and genetic operators; runs
	// with equal seeds enumerate identical candidates (default 1).
	Seed int64
}

// ParseSelector parses a -selector flag value into a SelectorSpec.
func ParseSelector(s string) (SelectorSpec, error) {
	spec := SelectorSpec{Kind: SelectorKind(strings.ToLower(strings.TrimSpace(s)))}
	if err := spec.validate(); err != nil {
		return SelectorSpec{}, err
	}
	return spec, nil
}

// validate rejects unknown kinds (empty means exhaustive).
func (s SelectorSpec) validate() error {
	switch s.Kind {
	case "", SelectorExhaustive, SelectorGreedy, SelectorBeam, SelectorLPGA:
		return nil
	}
	return fmt.Errorf("core: unknown selector %q (want exhaustive, greedy, beam, or lpga)", s.Kind)
}

// normalized fills defaults: exhaustive kind, beam width 8, seed 1.
func (s SelectorSpec) normalized() SelectorSpec {
	if s.Kind == "" {
		s.Kind = SelectorExhaustive
	}
	if s.BeamWidth <= 0 {
		s.BeamWidth = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// newSelector binds the configured selector for one data-parallel round
// over rs, whose information view is the round's frozen snapshot.
func newSelector(spec SelectorSpec, rs *resourceSelector, maxSets int) ResourceSelector {
	spec = spec.normalized()
	switch spec.Kind {
	case SelectorGreedy:
		return &greedySelector{rs: rs, maxSets: maxSets}
	case SelectorBeam:
		return &beamSelector{rs: rs, width: spec.BeamWidth, maxSets: maxSets}
	case SelectorLPGA:
		return &lpgaSelector{rs: rs, seed: spec.Seed, maxSets: maxSets}
	default:
		return &exhaustiveSelector{rs: rs, maxSets: maxSets}
	}
}
