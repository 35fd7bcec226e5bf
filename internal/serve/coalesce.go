package serve

// This file is the one way the serving tier levels load besides id
// hashing and shedding: work sharing. A dispatcher that is awake with
// a small batch serves its neighbors' queues in the same PredictBatch
// call instead of leaving them to wait for their own wake-up (see
// docs/performance.md, "Load levelling", for the measurement that kept
// this and deleted the alternatives).

// coalesceMin is the batch size below which a dispatcher's own take is
// extended with its ring neighbors' queues. 16 is the measured value:
// per-row predict cost is flat from there on, so a larger merge buys
// nothing and only holds the victims' dispatch mutexes longer.
const coalesceMin = 16

// steal extends a below-coalesceMin take with the pending queues of
// sh's ring neighbors (own+1, own+2, …), returning the extended
// segment list and the new total; a victim's queue is always taken
// whole. Each steal try-locks the victim's dispatchMu — the caller
// MUST hold the thief's own dispatchMu and MUST keep every victim's
// dispatchMu (via unlockVictims) until the merged batch is delivered:
// a busy victim is simply skipped (the thief never blocks behind a
// slow neighbor), and a robbed victim cannot start a competing batch
// over the same sessions, so per-session estimate order is preserved.
// The whole locking protocol is one rule: a dispatcher blocks only on
// its own dispatchMu and try-locks others', so it cannot deadlock.
// Under WithManualDispatch the dance runs on the single flushing
// goroutine in ring order — deterministic, so fleetsim replays it
// byte-identically.
func (s *Service) steal(sh *shard, segs []segment, total int) ([]segment, int) {
	own := total
	for off := 1; off < len(s.shards) && total < coalesceMin; off++ {
		v := s.shards[(sh.idx+off)%len(s.shards)]
		if !v.dispatchMu.TryLock() {
			continue
		}
		rows := s.take(v)
		if len(rows) == 0 {
			v.dispatchMu.Unlock()
			continue
		}
		segs = append(segs, segment{v, rows})
		total += len(rows)
	}
	if len(segs) > 1 {
		s.coalBatches.Add(1)
		s.coalWindows.Add(uint64(total - own))
	}
	return segs, total
}

// unlockVictims releases the dispatch mutexes steal acquired (every
// segment after the thief's own first one).
func unlockVictims(segs []segment) {
	for _, seg := range segs[1:] {
		seg.sh.dispatchMu.Unlock()
	}
}
