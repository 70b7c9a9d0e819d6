package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"apples/internal/grid"
)

// snapshotCache is the service's copy-on-write snapshot pool: N
// concurrent tenant rounds over the same (information source, host
// pool) in one tick share ONE frozen view — a single routeBatcher pass
// over the forecaster bank — instead of N independent freezes. The
// first round to arrive builds the snapshot (under the entry's
// sync.Once, so concurrent arrivals block briefly and then share);
// every other round fans out over the immutable result.
//
// Correctness leans on the same property the standalone round does:
// a frozen view is immutable, so sharing it across rounds is
// indistinguishable from each round freezing its own — provided the
// underlying source has not moved between the builds being collapsed.
// The service guarantees that by invalidation: Invalidate() retires every
// entry (future acquires rebuild), and the daemon calls it whenever
// simulated time advances. Between invalidations the source is static,
// so shared and private freezes are bit-identical.
//
// Keys pair the Information identity with the pool fingerprint, so
// tenants over different sources (or different userspec filters) never
// share. Information values must be comparable (every built-in source
// is a pointer).
type snapshotCache struct {
	mu      sync.Mutex
	entries map[snapKey]*snapEntry

	// builds counts rounds that froze a snapshot (cache miss), reused
	// those that shared an existing one; reused/(builds+reused) is the
	// sched_snapshot_shared_ratio gauge.
	builds atomic.Uint64
	reused atomic.Uint64
}

type snapKey struct {
	info Information
	pool string
}

type snapEntry struct {
	once sync.Once
	view infoView
}

func newSnapshotCache() *snapshotCache {
	return &snapshotCache{entries: make(map[snapKey]*snapEntry)}
}

// poolFingerprint canonicalizes a pool for the cache key. Pool order is
// part of the identity: enumeration order feeds the deterministic
// (score, index) reduce, so two tenants only share when their rounds
// would read identical views in identical order.
func poolFingerprint(pool []*grid.Host) string {
	var sb strings.Builder
	for i, h := range pool {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(h.Name)
	}
	return sb.String()
}

// acquire resolves the shared frozen view for (info, pool), building it
// exactly once between invalidations. shared reports whether this
// round reused an existing freeze.
func (c *snapshotCache) acquire(info Information, pool []*grid.Host) (e *snapEntry, shared bool) {
	key := snapKey{info: info, pool: poolFingerprint(pool)}
	c.mu.Lock()
	e = c.entries[key]
	if e == nil {
		e = &snapEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	built := false
	e.once.Do(func() {
		e.view = roundSnapshot(info, pool)
		built = true
	})
	if built {
		c.builds.Add(1)
	} else {
		c.reused.Add(1)
	}
	return e, !built
}

// Invalidate retires every cached entry: subsequent acquires freeze
// fresh views. Rounds still holding a retired entry finish against it
// unharmed (the view is immutable; the garbage collector reclaims it
// once the last of them is done). Call whenever the underlying information
// may have moved — the daemon ties this to simulated-time advances.
func (c *snapshotCache) Invalidate() {
	c.mu.Lock()
	c.entries = make(map[snapKey]*snapEntry)
	c.mu.Unlock()
}

// ratio is the running shared fraction: reused / (builds + reused).
// Zero until the first acquire.
func (c *snapshotCache) ratio() float64 {
	b, r := c.builds.Load(), c.reused.Load()
	if b+r == 0 {
		return 0
	}
	return float64(r) / float64(b+r)
}
