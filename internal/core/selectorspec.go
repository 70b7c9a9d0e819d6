package core

import (
	"fmt"
	"iter"
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
)

// SelectorSpec selects the Resource Selector a blueprint agent binds
// each scheduling round. The zero value means exhaustive; pass it
// through WithSelector.
type SelectorSpec struct {
	Kind SelectorKind
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
	case "", SelectorExhaustive, SelectorGreedy, SelectorBeam:
		return nil
	}
	return fmt.Errorf("core: unknown selector %q (want exhaustive, greedy, or beam)", s.Kind)
}

// normalized fills the default kind, exhaustive.
func (s SelectorSpec) normalized() SelectorSpec {
	if s.Kind == "" {
		s.Kind = SelectorExhaustive
	}
	return s
}

// newSelector binds the configured selector for one data-parallel round
// to the round's pool columns c, read from its frozen view, and returns
// its sequence of the round's candidate sets, chains of pool indices,
// with its cap report. The selector's eager work runs here.
func newSelector(spec SelectorSpec, c *poolCols, maxSets int) (iter.Seq[[]int], func() (int, bool)) {
	switch spec.normalized().Kind {
	case SelectorGreedy:
		s := &greedySelector{cols: c, maxSets: maxSets}
		return s.SelectSeq(), s.Truncated
	case SelectorBeam:
		s := &beamSelector{cols: c, maxSets: maxSets}
		return s.SelectSeq(), s.Truncated
	default:
		s := &exhaustiveSelector{cols: c, maxSets: maxSets}
		return s.SelectSeq(), s.Truncated
	}
}
