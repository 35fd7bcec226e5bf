package serve

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/trace"
)

// SessionOption configures one session.
type SessionOption func(*Session)

// OnEstimate registers a per-session estimate consumer, invoked from
// the dispatch goroutine in emission order. It must be fast and must
// not call back into the service's Flush or Close.
func OnEstimate(fn EstimateFunc) SessionOption {
	return func(ss *Session) { ss.onEstimate = fn }
}

// WithSessionPriority sets the session's load-shedding priority
// (default 0): under a ShedPolicy, sessions whose priority is below
// the policy's MinPriority floor have their completed windows shed
// while their shard is past the depth threshold; sessions at or above
// the floor are never shed. Priority has no effect without a
// ShedPolicy.
func WithSessionPriority(p int) SessionOption {
	return func(ss *Session) { ss.priority = p }
}

// Session is one monitored client inside a Service: it owns the
// client's LiveAggregator and alert state. Push is safe for one
// producer goroutine per session (the FMS connection handler, or a
// local sampling loop); the accessor methods are safe for concurrent
// use with Push.
type Session struct {
	svc *Service
	// home is the shard the session lives on, fixed by the id hash at
	// StartSession and immutable afterwards.
	home       *shard
	id         string
	onEstimate EstimateFunc
	// priority orders the session for load shedding (WithShedPolicy):
	// lower-priority sessions are shed first. Immutable after
	// StartSession.
	priority int

	// lastActive is the UnixNano timestamp of the session's latest
	// activity (push, flush, estimate delivery); the idle-TTL sweep
	// evicts sessions whose stamp falls behind the TTL.
	lastActive atomic.Int64

	// pendingWindows counts this session's windows that are queued or
	// in a batch being predicted (incremented at enqueue under the
	// home shard's lock, decremented after estimate delivery). The
	// idle sweep spares any session with a nonzero count, whether its
	// home queue or a thief's merged batch currently carries the
	// windows.
	pendingWindows atomic.Int64

	mu     sync.Mutex
	la     *aggregate.LiveAggregator
	closed bool

	estMu    sync.Mutex
	last     Estimate
	hasLast  bool
	belowThr bool // alert armed/disarmed state (edge-triggered alerts)
	count    uint64
}

// newSession builds a session with its own live aggregator.
func newSession(s *Service, sh *shard, id string, opts ...SessionOption) (*Session, error) {
	la, err := aggregate.NewLiveAggregator(s.agg)
	if err != nil {
		return nil, err
	}
	ss := &Session{svc: s, home: sh, id: id, la: la}
	ss.touch()
	for _, o := range opts {
		o(ss)
	}
	return ss, nil
}

// touch refreshes the idle-TTL activity stamp (on the service clock, so
// a virtual-time harness controls eviction).
func (ss *Session) touch() { ss.lastActive.Store(ss.svc.now().UnixNano()) }

// ID returns the session's client id.
func (ss *Session) ID() string { return ss.id }

// Push feeds one datapoint. When the datapoint completes an aggregation
// window, the window's feature row is queued for the next prediction
// batch. Out-of-order timestamps (Tgen going backwards) are treated as
// a restart of the monitored system, exactly like the training-side
// aggregation.
func (ss *Session) Push(d trace.Datapoint) error {
	ss.touch()
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return ErrSessionClosed
	}
	row, tgen, ok := ss.la.Push(d)
	ss.mu.Unlock()
	if !ok {
		return nil
	}
	return ss.svc.enqueue(ss, tgen, row, false)
}

// Flush queues the current (incomplete) window, if any, for prediction
// without resetting the aggregator — the "give me an estimate now" path
// for windows still filling up.
func (ss *Session) Flush() error {
	ss.touch()
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return ErrSessionClosed
	}
	row, tgen, ok := ss.la.Flush()
	ss.mu.Unlock()
	if !ok {
		return nil
	}
	return ss.svc.enqueue(ss, tgen, row, false)
}

// EndRun marks the end of the client's current run (a fail event, or a
// deliberate restart such as a rejuvenation action): the final partial
// window is still predicted, then the aggregator and the alert state
// reset for the next run. The alert re-arm rides with the final
// window's delivery — resetting earlier would let that (typically low)
// estimate re-fire an alert the run already raised, and would leak its
// below-threshold state into the next run.
func (ss *Session) EndRun() error {
	ss.touch()
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return ErrSessionClosed
	}
	row, tgen, ok := ss.la.Flush()
	ss.la.Reset()
	ss.mu.Unlock()
	if !ok {
		ss.resetAlert()
		return nil
	}
	if err := ss.svc.enqueue(ss, tgen, row, true); err != nil {
		ss.resetAlert()
		return err
	}
	return nil
}

// resetAlert re-arms the edge-triggered alert for the next run.
func (ss *Session) resetAlert() {
	ss.estMu.Lock()
	ss.belowThr = false
	ss.estMu.Unlock()
}

// Reset discards the partially filled window and re-arms the alert
// state without emitting anything — for when the monitored system was
// just restarted (e.g. by a rejuvenation action) and the buffered
// datapoints describe the old incarnation.
func (ss *Session) Reset() {
	ss.touch()
	ss.mu.Lock()
	ss.la.Reset()
	ss.mu.Unlock()
	ss.resetAlert()
}

// Latest returns the most recent estimate, if any.
func (ss *Session) Latest() (Estimate, bool) {
	ss.estMu.Lock()
	defer ss.estMu.Unlock()
	return ss.last, ss.hasLast
}

// Count returns how many estimates this session has received.
func (ss *Session) Count() uint64 {
	ss.estMu.Lock()
	defer ss.estMu.Unlock()
	return ss.count
}

// record stores an estimate and reports whether it crossed the alert
// threshold downward (edge-triggered: the alert re-arms only after the
// prediction recovers above the threshold or the run ends).
func (ss *Session) record(est Estimate, threshold float64) (crossed bool) {
	ss.touch()
	ss.estMu.Lock()
	defer ss.estMu.Unlock()
	ss.last = est
	ss.hasLast = true
	ss.count++
	if threshold <= 0 || math.IsNaN(est.RTTF) {
		return false
	}
	below := est.RTTF >= 0 && est.RTTF < threshold
	crossed = below && !ss.belowThr
	ss.belowThr = below
	return crossed
}

// Close detaches the session from the service; in-flight windows are
// still predicted, further pushes fail with ErrSessionClosed.
func (ss *Session) Close() error {
	ss.markClosed()
	ss.svc.removeSession(ss)
	return nil
}

// markClosed flips the closed flag without detaching.
func (ss *Session) markClosed() {
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
}
