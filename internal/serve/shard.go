package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// shard is one slice of the serving hot path: a share of the session
// map (by id hash, see HashPlacer), its own pending queue, and one
// dispatcher goroutine draining it. All shard state is guarded by the
// shard's own mutex, so the service never takes a global lock on the
// enqueue/predict/sweep paths.
type shard struct {
	idx      int        // position in Service.shards (immutable)
	mu       sync.Mutex // guards sessions, pending, closed
	sessions map[string]*Session
	pending  []pendingRow
	closed   bool

	// windows counts windows ever enqueued on this shard (monotonic) —
	// the raw per-shard load signal behind Stats.ShardLoads.
	windows atomic.Uint64

	kick       chan struct{} // wakes the shard's dispatcher, capacity 1
	dispatchMu sync.Mutex    // serializes this shard's batch processing
}

// pendingRow is one completed window awaiting its prediction batch.
type pendingRow struct {
	sess *Session
	tgen float64
	row  []float64 // full aggregated layout
	// endRun marks the final window of a run: after its estimate is
	// delivered, the session's alert re-arms for the next run.
	endRun bool
}

// shardIndex returns sh's position in the shard slice (for failpoint
// and observability labels).
func (s *Service) shardIndex(sh *shard) int { return sh.idx }

// fnvShard hashes a session id onto a shard index (FNV-1a: cheap,
// stable, and uniform enough that 10⁴ ids spread within a few
// percent). The constants and the reduction are pinned bit for bit by
// TestHashPlacerPinned: committed scenario fingerprints and every
// shard-targeted id in the tests and the benchmark depend on them.
func fnvShard(id string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * prime32
	}
	return int(h % uint32(shards))
}

// HashPlacer exposes the service's routing — the shard a session id
// lives on for its whole life — so a harness can stage a chosen
// per-shard load without reaching into the package.
type HashPlacer struct{}

// Place maps a session id to a shard index in [0, shards).
func (HashPlacer) Place(id string, shards int) int { return fnvShard(id, shards) }

// shardFor routes a session id to its shard. The mapping is a pure
// function of the id and the shard count, so a session's home never
// changes.
func (s *Service) shardFor(id string) *shard {
	return s.shards[fnvShard(id, len(s.shards))]
}

// lockShardFor returns the shard id routes to, with its lock held.
func (s *Service) lockShardFor(id string) *shard {
	sh := s.shardFor(id)
	sh.mu.Lock()
	return sh
}

// StartSession registers a new monitored client and returns its
// session. The id must not be active already.
func (s *Service) StartSession(id string, opts ...SessionOption) (*Session, error) {
	if s.closed.Load() {
		return nil, ErrServiceClosed
	}
	sh := s.lockShardFor(id)
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, ErrServiceClosed
	}
	if _, ok := sh.sessions[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSession, id)
	}
	// Reserve a slot in the global count before inserting: the limit
	// holds exactly across shards without any cross-shard lock.
	if n := s.sessionCount.Add(1); s.cfg.maxSessions > 0 && n > int64(s.cfg.maxSessions) {
		s.sessionCount.Add(-1)
		return nil, ErrTooManySessions
	}
	ss, err := newSession(s, sh, id, opts...)
	if err != nil {
		s.sessionCount.Add(-1)
		return nil, err
	}
	sh.sessions[id] = ss
	return ss, nil
}

// Session returns the active session with the given id, if any.
func (s *Service) Session(id string) (*Session, bool) {
	sh := s.lockShardFor(id)
	defer sh.mu.Unlock()
	ss, ok := sh.sessions[id]
	return ss, ok
}

// Sessions returns the ids of all active sessions.
func (s *Service) Sessions() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.sessions {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// enqueue queues one completed window on the session's home shard for
// the next prediction batch, or sheds it under the ShedPolicy. The
// session's closed flag is re-checked under the shard lock: a push
// that raced the idle sweep past its own closed-check must not slip a
// window in after the sweep delivered the session's final snapshot.
// (Lock order sh.mu→ss.mu matches the sweep; no caller holds a session
// lock while acquiring a shard lock.)
func (s *Service) enqueue(ss *Session, tgen float64, row []float64, endRun bool) error {
	sh := ss.home
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrServiceClosed
	}
	ss.mu.Lock()
	dead := ss.closed
	ss.mu.Unlock()
	if dead {
		sh.mu.Unlock()
		return ErrSessionClosed
	}
	if p := *s.shedPol.Load(); p.MaxQueueDepth > 0 && len(sh.pending) >= p.MaxQueueDepth && ss.priority < p.MinPriority {
		// Shed: counted under the shard lock, so the windows predicted
		// and the windows shed partition the accepted ones exactly —
		// and the per-priority breakdown (shedMu nests inside the
		// shard lock) always sums to the total.
		s.shedWindows.Add(1)
		s.shedMu.Lock()
		if s.shedByPrio == nil {
			s.shedByPrio = make(map[int]uint64)
		}
		s.shedByPrio[ss.priority]++
		s.shedMu.Unlock()
		depth := len(sh.pending)
		sh.mu.Unlock()
		if fn := s.cfg.shedFunc; fn != nil {
			fn(Shed{SessionID: ss.id, Priority: ss.priority, Tgen: tgen, QueueDepth: depth})
		}
		return ErrWindowShed
	}
	sh.pending = append(sh.pending, pendingRow{sess: ss, tgen: tgen, row: row, endRun: endRun})
	// Depth is incremented under the same lock the batch take
	// decrements under, so the global counter is a sum of per-shard
	// terms that are individually never negative — a concurrent Stats
	// read can never see a negative or double-counted depth.
	s.queueDepth.Add(1)
	// pendingWindows rides the same lock: the idle sweep (which holds
	// this shard's lock) can never observe the append without the
	// count, so a session with queued work is never evicted.
	ss.pendingWindows.Add(1)
	sh.windows.Add(1)
	sh.mu.Unlock()
	select {
	case sh.kick <- struct{}{}:
	default:
	}
	return nil
}

// take moves every pending row off sh's queue. Everything happens
// under the shard's own lock — the same lock the enqueue-side depth
// increment, the shed check, and the sweep take — so the queue-depth
// counter and the shed accounting stay exact even when the taker is
// another shard's dispatcher (a coalescing thief). The rows' sessions
// stay protected from the idle sweep by their pendingWindows counts,
// which release drops only after delivery.
func (s *Service) take(sh *shard) []pendingRow {
	sh.mu.Lock()
	rows := sh.pending
	sh.pending = nil
	if len(rows) > 0 {
		s.queueDepth.Add(-int64(len(rows)))
	}
	sh.mu.Unlock()
	return rows
}

// release drops the pending-window counts enqueue published, after
// the rows' estimates have been delivered. The count lives on the
// session, not the shard, so it survives coalescing (a thief carries
// the rows) — the idle sweep spares the session either way.
func release(rows []pendingRow) {
	for i := range rows {
		rows[i].sess.pendingWindows.Add(-1)
	}
}

// removeSession detaches a closed session from its home shard.
func (s *Service) removeSession(ss *Session) {
	sh := ss.home
	sh.mu.Lock()
	if cur, ok := sh.sessions[ss.id]; ok && cur == ss {
		delete(sh.sessions, ss.id)
		s.sessionCount.Add(-1)
	}
	sh.mu.Unlock()
}

// sweeper is the idle-TTL eviction loop: every quarter TTL it removes
// sessions whose last activity is older than the TTL. Sessions with
// windows still awaiting prediction are spared until those estimates
// are delivered, so eviction never drops completed work and the evict
// hook's snapshot is truly final.
func (s *Service) sweeper() {
	defer s.wg.Done()
	interval := s.cfg.sessionTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.sweepIdle(s.now())
		}
	}
}

// SweepIdleNow runs one idle-TTL eviction pass at the service clock's
// current time, on the calling goroutine — the manual-dispatch
// counterpart of the background sweeper (a virtual-clock harness
// advances its clock, then sweeps). A no-op without WithSessionTTL.
func (s *Service) SweepIdleNow() {
	if s.cfg.sessionTTL > 0 {
		s.sweepIdle(s.now())
	}
}

// sweepIdle evicts every session idle since before now−TTL, one shard
// at a time: victims are closed and detached under their shard's lock
// only, then their final snapshots go to the evict hook with no lock
// held — the enqueue/predict hot path of every other shard (and of
// this shard, between the lock release and the hook calls) never
// stalls behind the sweep. A session racing the sweep with a
// concurrent Push either touches its activity stamp in time to
// survive, or pushes into a closed session and gets ErrSessionClosed —
// its already-queued windows are predicted either way, so the event
// accounting stays exact.
func (s *Service) sweepIdle(now time.Time) {
	cutoff := now.Add(-s.cfg.sessionTTL).UnixNano()
	for _, sh := range s.shards {
		var victims []*Session
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			return
		}
		for id, ss := range sh.sessions {
			// Sessions with windows still awaiting delivery — queued
			// here, or in the batch being predicted right now (by this
			// shard's own dispatcher or by a coalescing thief that took
			// the queue) — carry a nonzero pendingWindows count and are
			// spared this round:
			// the evict hook's snapshot must be final. The delivery
			// itself touches the activity stamp, so such a session is
			// reconsidered one idle TTL after its last estimate, not
			// dropped forever.
			if ss.lastActive.Load() < cutoff && ss.pendingWindows.Load() == 0 {
				victims = append(victims, ss)
				delete(sh.sessions, id)
				// Free the slot at delete time, not after the evict
				// hooks: a StartSession racing a slow hook must see the
				// capacity the map already reflects.
				s.sessionCount.Add(-1)
				// Close under the shard lock: a racing Push has either
				// already enqueued (pendingWindows > 0, so the session
				// was spared) or will observe the closed flag — nothing
				// slips a window in after the final snapshot. Safe: no
				// caller holds a session lock while acquiring a shard
				// lock.
				ss.markClosed()
			}
		}
		sh.mu.Unlock()
		for _, ss := range victims {
			s.evicted.Add(1)
			if fn := s.cfg.evictFunc; fn != nil {
				last, ok := ss.Latest()
				fn(EvictedSession{ID: ss.id, Last: last, HasEstimate: ok, Estimates: ss.Count()})
			}
		}
	}
}
