package serve

import (
	"time"

	"repro/internal/ml"
)

// dispatcher is one shard's batching loop: woken by enqueue, it
// predicts the shard's queued windows (and, while the batch is small,
// its neighbors') in one batch per registry snapshot.
func (s *Service) dispatcher(sh *shard) {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			s.shutdownOnce.Do(s.shutdown)
			return
		case <-sh.kick:
		}
		s.flushShard(sh)
	}
}

// shutdown runs exactly once, on the first dispatcher goroutine to see
// the cancelled context: it stops new enqueues shard by shard, drains
// the windows already queued everywhere — a clean shutdown never drops
// completed work — and closes every session.
func (s *Service) shutdown() {
	s.closed.Store(true)
	var sessions []*Session
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		for _, ss := range sh.sessions {
			sessions = append(sessions, ss)
		}
		sh.mu.Unlock()
	}
	s.Flush()
	for _, ss := range sessions {
		ss.markClosed()
	}
}

// Flush synchronously predicts every queued window on every shard.
// Sessions keep pushing concurrently; rows enqueued while a batch is
// in flight are picked up by the next iteration. Callbacks run on the
// calling goroutine.
func (s *Service) Flush() {
	for _, sh := range s.shards {
		s.flushShard(sh)
	}
}

// flushShard drains one shard's pending queue: per iteration it takes
// the queue, extends a small take with neighbor queues (coalesce.go),
// snapshots the registry, merges everything into one PredictBatch
// call, and delivers the estimates in enqueue order.
func (s *Service) flushShard(sh *shard) {
	sh.dispatchMu.Lock()
	defer sh.dispatchMu.Unlock()
	for s.dispatchOnce(sh) {
	}
}

// segment is one shard's contribution to a (possibly coalesced) batch.
type segment struct {
	sh   *shard
	rows []pendingRow
}

// dispatchOnce takes and predicts one batch for sh, reporting whether
// there was anything to do. The caller holds sh.dispatchMu, and holds
// it until delivery completes — together with the thief protocol in
// coalesce.go this is the load-bearing guarantee that per-session
// estimate order survives a neighbor serving this shard's queue.
func (s *Service) dispatchOnce(sh *shard) bool {
	own := s.take(sh)
	if len(own) == 0 {
		return false
	}
	segs := []segment{{sh, own}}
	total := len(own)
	if total < coalesceMin {
		segs, total = s.steal(sh, segs, total)
		// Victims' dispatch mutexes stay held until their segments'
		// estimates are delivered below.
		defer unlockVictims(segs)
	}
	if fn := s.cfg.batchFailpoint; fn != nil {
		fn(sh.idx, total)
	}
	start := time.Now()
	// Snapshot the model AFTER the last take (own and stolen alike): a
	// Deploy that returned before any of these rows were enqueued is
	// necessarily visible here, so no row — stolen or not — is ever
	// predicted by a model older than the one current at its enqueue
	// time.
	mv := s.cur.Load()
	X := make([][]float64, 0, total)
	for _, seg := range segs {
		for i := range seg.rows {
			X = append(X, mv.project(seg.rows[i].row))
		}
	}
	out := ml.PredictAll(mv.dep.Model, X)
	k := 0
	for _, seg := range segs {
		for i := range seg.rows {
			est := Estimate{
				SessionID:    seg.rows[i].sess.id,
				Tgen:         seg.rows[i].tgen,
				RTTF:         out[k],
				ModelVersion: mv.version,
				ModelName:    mv.dep.Name,
			}
			k++
			s.deliver(seg.rows[i].sess, est)
			if seg.rows[i].endRun {
				seg.rows[i].sess.resetAlert()
			}
		}
		release(seg.rows)
	}
	s.lastBatchNs.Store(int64(time.Since(start)))
	s.lastBatchSize.Store(int64(total))
	return true
}

// deliver records an estimate on its session and fans it out to the
// configured consumers, raising an alert on a downward threshold
// crossing.
func (s *Service) deliver(ss *Session, est Estimate) {
	s.predictions.Add(1)
	crossed := ss.record(est, s.cfg.alertBelow)
	if fn := ss.onEstimate; fn != nil {
		fn(est)
	}
	if fn := s.cfg.estimateFunc; fn != nil {
		fn(est)
	}
	if crossed && s.cfg.alertFunc != nil {
		s.alerts.Add(1)
		s.cfg.alertFunc(Alert{Estimate: est, Threshold: s.cfg.alertBelow})
	}
}
