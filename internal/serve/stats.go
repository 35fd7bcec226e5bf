package serve

import (
	"time"
)

// ShardLoad is one shard's load snapshot, exposed through
// Stats.ShardLoads.
type ShardLoad struct {
	// Shard is the shard index.
	Shard int
	// Sessions is the number of sessions currently homed on the shard.
	Sessions int
	// QueueDepth is the shard's pending-window count at snapshot time.
	QueueDepth int
	// Windows is the cumulative count of windows enqueued on the shard
	// since New — monotonic, so successive snapshots difference into
	// per-interval window rates.
	Windows uint64
}

// Stats is a snapshot of service counters — the backpressure and
// lifecycle observability surface: queue depth says how far the
// dispatchers are behind, last-batch latency/size say what each
// dispatch costs, the eviction/refresh/shed counters expose the
// background loops and the load shedder, and the per-shard loads
// show how evenly the id hash spreads the fleet.
type Stats struct {
	// Sessions is the number of currently active sessions.
	Sessions int
	// Shards is the number of dispatch shards the service runs.
	Shards int
	// Predictions counts estimates emitted since New.
	Predictions uint64
	// Alerts counts threshold crossings since New.
	Alerts uint64
	// ModelVersion is the currently served registry version.
	ModelVersion uint64
	// QueueDepth is the number of completed windows waiting for their
	// next prediction batch, summed over all shards. The counter is
	// maintained atomically under the shard locks, so a snapshot taken
	// mid-sweep or mid-batch is never negative and never double-counts
	// a window. Persistent growth means the service is past its
	// sustainable load — the backpressure signal the ShedPolicy acts
	// on.
	QueueDepth int
	// ShedWindows counts completed windows dropped by the ShedPolicy
	// since New. Every completed window is either predicted exactly
	// once or counted here exactly once — the two never overlap.
	ShedWindows uint64
	// ShedByPriority breaks ShedWindows down by the shedding session's
	// priority — who lost windows, not just how many. The map is a
	// fresh copy per Stats call (nil when nothing was ever shed); its
	// values always sum to ShedWindows, and under a correctly
	// configured policy every key is below the policy's MinPriority
	// floor.
	ShedByPriority map[int]uint64
	// EvictedSessions counts idle-TTL session evictions since New.
	EvictedSessions uint64
	// Refreshes counts successful ModelSource hot-swaps since New
	// (both auto-refresh ticks and explicit Refresh calls).
	Refreshes uint64
	// RefreshFailures counts ModelSource pulls that returned an error.
	// A failed pull never drops or regresses the served model — the
	// current deployment keeps serving and the next tick retries — so
	// this counter plus RegistryStale is how refresh trouble surfaces.
	RefreshFailures uint64
	// RegistryStale reports that the service's ModelSource is serving
	// its last-good deployment because the upstream registry is
	// unreachable or returning garbage (stale-while-revalidate
	// failover). Predictions keep flowing from the last-good model; the
	// flag, RegistryStaleAge, and RegistryLastError say so out loud.
	// Only populated when the ModelSource implements StatusSource
	// (FailoverSource, HTTPModelSource).
	RegistryStale bool
	// RegistryStaleAge is how long the source has been serving stale
	// (zero when fresh), on the service clock.
	RegistryStaleAge time.Duration
	// RegistryLastError is the most recent upstream failure (empty when
	// fresh).
	RegistryLastError string
	// CoalescedBatches counts prediction batches that merged at least
	// one neighbor shard's queue into a dispatcher's own small take
	// (coalesce.go), and CoalescedWindows counts the neighbor windows
	// themselves. At light fleet-wide load both grow and batches get
	// larger; under per-shard load both stay flat because every
	// shard's own take already reaches the stealing threshold.
	CoalescedBatches uint64
	CoalescedWindows uint64
	// ShardLoads is the per-shard load table — session count, pending
	// depth, and cumulative enqueued windows per shard, in shard
	// order. Differencing successive snapshots' Windows fields gives
	// per-shard window rates.
	ShardLoads []ShardLoad
	// Migrations is always 0: sessions no longer move between shards.
	// The field stays only because the frozen benchmark/ reads it; the
	// next benchmark PR drops its serve.migrations metric and this
	// field together.
	Migrations uint64
	// LastBatchLatency is the wall time of the most recent prediction
	// batch (on any shard), and LastBatchSize its window count.
	LastBatchLatency time.Duration
	LastBatchSize    int
}

// Stats returns a snapshot of the service counters. Every scalar field
// is read from an atomic (the per-priority shed map takes only its own
// small mutex, and the per-shard load table one shard lock at a time —
// never a global lock), so Stats never contends with the hot path and
// a snapshot taken mid-sweep or mid-batch is internally consistent:
// the queue depth is the exact sum over shards (never negative, never
// double-counted) and the shed/prediction counters partition the
// completed windows.
func (s *Service) Stats() Stats {
	var byPrio map[int]uint64
	s.shedMu.Lock()
	if len(s.shedByPrio) > 0 {
		byPrio = make(map[int]uint64, len(s.shedByPrio))
		for p, n := range s.shedByPrio {
			byPrio[p] = n
		}
	}
	s.shedMu.Unlock()
	out := Stats{
		ShedByPriority:   byPrio,
		Sessions:         int(s.sessionCount.Load()),
		Shards:           len(s.shards),
		Predictions:      s.predictions.Load(),
		Alerts:           s.alerts.Load(),
		ModelVersion:     s.cur.Load().version,
		QueueDepth:       int(s.queueDepth.Load()),
		ShedWindows:      s.shedWindows.Load(),
		EvictedSessions:  s.evicted.Load(),
		Refreshes:        s.refreshes.Load(),
		RefreshFailures:  s.refreshFailures.Load(),
		CoalescedBatches: s.coalBatches.Load(),
		CoalescedWindows: s.coalWindows.Load(),
		ShardLoads:       s.shardLoads(),
		LastBatchLatency: time.Duration(s.lastBatchNs.Load()),
		LastBatchSize:    int(s.lastBatchSize.Load()),
	}
	// Staleness ride-along: a StatusSource (FailoverSource,
	// HTTPModelSource) reports whether the deployments it hands out are
	// fresh registry reads or the last-good failover copy. The source's
	// own small mutex is the only lock involved — never a shard lock.
	if sr, ok := s.cfg.source.(StatusSource); ok {
		st := sr.SourceStatus()
		out.RegistryStale = st.Stale
		out.RegistryLastError = st.LastError
		if st.Stale && !st.StaleSince.IsZero() {
			if age := s.now().Sub(st.StaleSince); age > 0 {
				out.RegistryStaleAge = age
			}
		}
	}
	return out
}

// shardLoads snapshots every shard's load, one shard lock at a time.
func (s *Service) shardLoads() []ShardLoad {
	out := make([]ShardLoad, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = ShardLoad{
			Shard:      i,
			Sessions:   len(sh.sessions),
			QueueDepth: len(sh.pending),
			Windows:    sh.windows.Load(),
		}
		sh.mu.Unlock()
	}
	return out
}
