package core

import (
	"iter"
	"sort"
)

// beamIterations bounds the local-search rounds; the beam always
// converges (dedup kills revisits) well before this on pools the gap
// tests cover.
const beamIterations = 16

// beamMoveFanout is how many ranked non-members each state tries to add
// or swap in per iteration.
const beamMoveFanout = 6

// beamWidth is the number of beam states kept per iteration.
const beamWidth = 8

// beamSelector runs a beam search of width beamWidth over memberships:
// the beam seeds from the desirability-prefix family (all of which it also
// yields, so it never does worse than the legacy large-pool fallback)
// plus the top single hosts, then iterates add / drop / swap moves
// scored by the surrogate objective, keeping the best W distinct states
// per round and yielding each state that newly enters the beam. All
// orderings are deterministic — ties break on the canonical membership
// key — so equal specs enumerate equal candidates.
type beamSelector struct {
	cols    *poolCols
	maxSets int
	truncation
}

// SelectSeq streams the beam's states over the columns' pool.
func (b *beamSelector) SelectSeq() iter.Seq[[]int] {
	b.truncation = truncation{}
	m := buildSelModel(b.cols, len(b.cols.pool.hosts) <= selExactPairHosts)
	return func(yield func([]int) bool) {
		if m.n == 0 {
			return
		}
		stopped := false
		yielded := make(map[string]bool)
		emitted := 0
		emit := func(s *selState) bool {
			if stopped || yielded[s.key()] {
				return !stopped
			}
			yielded[s.key()] = true
			if b.maxSets > 0 && emitted >= b.maxSets {
				b.dropped++
				b.capped = true
				return true
			}
			emitted++
			if !yield(m.chain(s.idxs)) {
				stopped = true
			}
			return !stopped
		}

		type scored struct {
			st *selState
			f  float64
		}
		var beam []scored
		admit := func(s *selState) {
			beam = append(beam, scored{s, m.score(s)})
		}

		// Seed: the prefix ladder plus the top-eff singles.
		prefix := newSelState(m.n)
		next := 0
		for _, size := range prefixSizes(m.n) {
			for len(prefix.idxs) < size {
				m.add(prefix, m.rank[next])
				next++
			}
			s := prefix.clone()
			if !emit(s) {
				return
			}
			admit(s)
		}
		for i := 0; i < min(beamWidth, m.n); i++ {
			s := newSelState(m.n)
			m.add(s, m.effOrder[i])
			if !emit(s) {
				return
			}
			admit(s)
		}

		trim := func() {
			sort.SliceStable(beam, func(a, c int) bool {
				if beam[a].f != beam[c].f {
					return beam[a].f < beam[c].f
				}
				return beam[a].st.key() < beam[c].st.key()
			})
			// Distinct memberships only.
			kept := beam[:0]
			seen := make(map[string]bool)
			for _, s := range beam {
				k := s.st.key()
				if seen[k] {
					continue
				}
				seen[k] = true
				kept = append(kept, s)
				if len(kept) == beamWidth {
					break
				}
			}
			beam = kept
		}
		trim()

		visited := make(map[string]bool, len(beam))
		for _, s := range beam {
			visited[s.st.key()] = true
		}
		for iterN := 0; iterN < beamIterations; iterN++ {
			frontier := beam
			for _, cur := range frontier {
				st := cur.st
				// Adds: the first beamMoveFanout ranked non-members.
				tried := 0
				for _, i := range m.rank {
					if st.member[i] {
						continue
					}
					succ := st.clone()
					m.add(succ, i)
					if !visited[succ.key()] {
						visited[succ.key()] = true
						beam = append(beam, scored{succ, m.score(succ)})
					}
					if tried++; tried == beamMoveFanout {
						break
					}
				}
				// Drops: every member on small sets; the weakest members
				// (lowest eff, then highest distance) on large ones.
				if len(st.idxs) > 1 {
					drops := st.idxs
					if len(drops) > beamMoveFanout {
						drops = append([]int(nil), st.idxs...)
						sort.Slice(drops, func(a, c int) bool {
							if m.eff[drops[a]] != m.eff[drops[c]] {
								return m.eff[drops[a]] < m.eff[drops[c]]
							}
							return m.nameRank[drops[a]] < m.nameRank[drops[c]]
						})
						drops = drops[:beamMoveFanout]
					}
					for _, i := range drops {
						succ := st.clone()
						m.remove(succ, i)
						if !visited[succ.key()] {
							visited[succ.key()] = true
							beam = append(beam, scored{succ, m.score(succ)})
						}
					}
					// Swaps: replace the weakest member (lowest eff, name
					// tie-break) with a ranked non-member.
					weakest := st.idxs[0]
					for _, i := range st.idxs[1:] {
						if m.eff[i] < m.eff[weakest] ||
							(m.eff[i] == m.eff[weakest] && m.nameRank[i] < m.nameRank[weakest]) {
							weakest = i
						}
					}
					tried = 0
					for _, i := range m.rank {
						if st.member[i] {
							continue
						}
						succ := st.clone()
						m.remove(succ, weakest)
						m.add(succ, i)
						if !visited[succ.key()] {
							visited[succ.key()] = true
							beam = append(beam, scored{succ, m.score(succ)})
						}
						if tried++; tried == beamMoveFanout {
							break
						}
					}
				}
			}
			if len(beam) == len(frontier) {
				break
			}
			trim()
			// Yield states that survived into the beam and are new.
			progressed := false
			for _, s := range beam {
				if !yielded[s.st.key()] {
					progressed = true
					if !emit(s.st) {
						return
					}
				}
			}
			if !progressed {
				break
			}
		}
	}
}
