package core

import (
	"iter"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"apples/internal/grid"
)

// evalChunk sizes the streamed job queue: workers*evalChunk sets may
// wait in the channel, enough to keep every worker fed between the
// producer's yields without buffering the whole enumeration.
const evalChunk = 16

// runStreamed consumes candidate sets from a selector sequence as they
// are produced, evaluating each with eval, and returns the feasible
// candidates in enumeration order plus the number of sets consumed. The
// full set list is never materialized: with workers <= 1 each set is
// evaluated inline between yields; otherwise the consuming goroutine
// feeds a bounded channel and up to `workers` goroutines evaluate
// concurrently, collecting (index, candidate) pairs that are merged and
// re-sorted by enumeration index at the end — so the result, and
// therefore the (score, index) reduce downstream, is bit-identical to
// the sequential path regardless of interleaving.
func runStreamed(seq iter.Seq[[]*grid.Host], workers int, eval func(int, []*grid.Host) (Candidate, bool)) ([]Candidate, int) {
	considered := 0
	if workers == 1 {
		var cands []Candidate
		for set := range seq {
			i := considered
			considered++
			if cand, ok := eval(i, set); ok {
				cands = append(cands, cand)
			}
		}
		return cands, considered
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		i   int
		set []*grid.Host
	}
	type indexed struct {
		i    int
		cand Candidate
	}
	jobs := make(chan job, workers*evalChunk)
	locals := make(chan []indexed, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []indexed
			for j := range jobs {
				if cand, ok := eval(j.i, j.set); ok {
					out = append(out, indexed{j.i, cand})
				}
			}
			locals <- out
		}()
	}
	for set := range seq {
		jobs <- job{considered, set}
		considered++
	}
	close(jobs)
	wg.Wait()
	close(locals)
	var all []indexed
	for out := range locals {
		all = append(all, out...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	var cands []Candidate
	if len(all) > 0 {
		cands = make([]Candidate, 0, len(all))
		for _, r := range all {
			cands = append(cands, r.cand)
		}
	}
	return cands, considered
}

// bestScore is the shared best-so-far objective value used for pruning:
// workers publish every feasible candidate's score and consult the
// incumbent before paying for a plan. Stored as float bits in an atomic
// for a lock-free CAS min.
type bestScore struct{ bits atomic.Uint64 }

func newBestScore() *bestScore {
	b := &bestScore{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *bestScore) load() float64 { return math.Float64frombits(b.bits.Load()) }

func (b *bestScore) update(s float64) {
	for {
		old := b.bits.Load()
		if s >= math.Float64frombits(old) {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}
