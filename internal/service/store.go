package service

import "repro/internal/parallel"

// source classifies how a store request was satisfied, for the cache
// counters and the per-response cached flag. The first three values are
// the release and dataset caches' own outcomes (parallel.Cache.Do).
type source int

const (
	// sourceMiss: this caller ran the computation itself.
	sourceMiss = source(parallel.Miss)
	// sourceHit: the value was already resident in the store.
	sourceHit = source(parallel.Hit)
	// sourceShared: an identical computation was in flight and this
	// caller shared its result (singleflight dedup).
	sourceShared = source(parallel.Shared)
	// sourceDisk: the value was recovered from the durable tier
	// instead of being recomputed. Assigned by the server's
	// resolution layer — the cache itself knows nothing of disk.
	sourceDisk = sourceShared + 1
)

// String names a source for span outcomes and request logs.
func (s source) String() string {
	switch s {
	case sourceHit:
		return "hit"
	case sourceShared:
		return "shared"
	case sourceDisk:
		return "disk"
	default:
		return "miss"
	}
}
