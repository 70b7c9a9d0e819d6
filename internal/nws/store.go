package nws

import (
	"errors"
	"fmt"

	"apples/internal/mstore"
)

// WithStore attaches a durable measurement store: every sample a sensor
// observes is appended as one record (KindCPU for host availability,
// KindBandwidth for link bandwidth; the record tick is the sample's
// 1-based position in its series). Appends ride the sensing sweep and
// are buffered — the store's own rotation/Sync policy decides when they
// reach disk. The first append failure is latched (StoreErr) and stops
// further appends rather than failing the sweep: sensing keeps the
// in-memory banks correct even when the disk misbehaves.
func WithStore(st *mstore.Store) ServiceOption {
	return func(s *Service) { s.store = st }
}

// StoreErr reports the first store-append failure, or nil. Callers that
// care about durability check it after sensing stops (the CLIs do on
// exit).
func (s *Service) StoreErr() error { return s.storeErr }

// ErrRestoreAfterWatch is returned by RestoreFromStore when the service
// already watches a host or link. The running sensors hold the banks
// they were installed with, so swapping in restored banks would leave
// the service answering from banks that never see another sample.
var ErrRestoreAfterWatch = errors.New("nws: restore from store after resources are watched")

// RestoreFromStore replays every sensor record in the store — the full
// history — into fresh forecaster banks, exactly as living through the
// samples would have: forecasts, per-forecaster error state, and bank
// winners come out bit-identical (forecasters are deterministic
// functions of their input series, and the store preserves append
// order). Series present in the service but absent from the store are
// left untouched; records of non-sensor kinds (e.g. load-trace steps
// sharing the store) are skipped. Call it before watching any resource:
// once a host or link is watched it returns ErrRestoreAfterWatch and
// changes nothing. Subsequent sensing appends to both the banks and —
// when WithStore points at the same store — the history itself, so
// ticks stay monotonic across restarts.
//
// It returns how many sensor records were replayed.
func (s *Service) RestoreFromStore(st *mstore.Store) (int, error) {
	if len(s.watchedHosts) > 0 || len(s.watchedLinks) > 0 {
		return 0, ErrRestoreAfterWatch
	}
	replayed := 0
	fresh := make(map[string]bool) // kind-prefixed series started over
	for r, err := range st.Records() {
		if err != nil {
			return replayed, fmt.Errorf("nws: restore from store: %w", err)
		}
		var banks map[string]*Bank
		switch r.Kind {
		case mstore.KindCPU:
			banks = s.cpuBanks
		case mstore.KindBandwidth:
			banks = s.bwBanks
		default:
			continue
		}
		key := r.Kind.String() + "\x00" + r.Series
		if !fresh[key] {
			fresh[key] = true
			banks[r.Series] = s.newBank()
		}
		banks[r.Series].Update(r.Value)
		replayed++
	}
	return replayed, nil
}
