// Package serve is the production serving layer of the F2PM
// reproduction (paper §III-E deployment, §I's proactive-rejuvenation
// loop): a PredictionService owns a versioned model registry and a set
// of per-client sessions, turns each client's live datapoint stream
// into aggregated feature rows, predicts Remaining Time To Failure in
// cross-session batches, and raises threshold-crossing alerts so an
// operator (or an automated rejuvenation action) can act before the
// failure.
//
// The pieces:
//
//   - Deployment: a trained model plus the feature subset and
//     aggregation config it was trained with (FromReport extracts it
//     from a pipeline report; modelio persists it).
//   - Service: the registry + dispatchers. Deploy atomically hot-swaps
//     the served model; rows already queued keep their ordering and
//     every row enqueued after Deploy returns is predicted by the new
//     model — never a stale one.
//   - Session: one monitored client. Push feeds datapoints through a
//     LiveAggregator; completed windows are queued for the next
//     prediction batch, so thousands of concurrent sessions amortize
//     the kernel/tree evaluation hot path.
//
// The hot path is sharded for fleet-scale client counts, and split
// across this package by layer: shard.go is the mechanism (the FNV id
// hash that fixes a session's home shard for life, session map slices,
// pending queues, the enqueue path, the idle-TTL sweep), dispatch.go
// the batch loop, and coalesce.go the work sharing — a dispatcher whose
// batch is small serves its neighbors' queues in the same PredictBatch
// call. Load is levelled three ways and no more: the hash spreads
// sessions, work sharing spreads dispatch, and under sustained
// overload an optional ShedPolicy drops completed windows of
// low-priority sessions (WithSessionPriority) instead of queuing them,
// with exact shed accounting in Stats. Enqueue, prediction, and the
// idle-TTL sweep only ever take one shard's lock at a time, so a sweep
// over 10⁵ sessions or a slow batch on one shard never stalls the
// others. A batch is predicted over one immutable registry snapshot
// taken after its last take, so the post-Deploy freshness guarantee
// holds for own and neighbor rows alike.
//
// A Service plugs directly into the FMS via monitor.WithStream, closing
// the loop monitor → aggregate → predict → act in one process.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// Sentinel errors of the serving layer.
var (
	// ErrServiceClosed is returned once the service's context is
	// cancelled or Close has run.
	ErrServiceClosed = errors.New("serve: service closed")
	// ErrSessionClosed is returned by operations on a closed session.
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrTooManySessions is returned by StartSession past the
	// WithMaxSessions limit.
	ErrTooManySessions = errors.New("serve: session limit reached")
	// ErrNoModel means no deployment is available (no WithDeployment /
	// WithModelSource, or a report with no successful model).
	ErrNoModel = errors.New("serve: no model deployed")
	// ErrDuplicateSession is returned by StartSession for an id that is
	// already active.
	ErrDuplicateSession = errors.New("serve: session id already active")
	// ErrUnknownFeature means a deployment names a column the service's
	// aggregated layout does not produce.
	ErrUnknownFeature = errors.New("serve: unknown feature")
	// ErrAggregationMismatch means a deployment was trained under a
	// different windowing configuration than the service runs.
	ErrAggregationMismatch = errors.New("serve: deployment aggregation config differs from service")
	// ErrWindowShed is returned by Push/Flush/EndRun when the completed
	// window was dropped by the ShedPolicy: the session's shard is past
	// its queue-depth threshold and the session's priority is below the
	// policy's floor. The window is counted in Stats.ShedWindows and
	// will never be predicted.
	ErrWindowShed = errors.New("serve: window shed under overload")
)

// Estimate is one RTTF prediction for one session.
type Estimate struct {
	// SessionID names the monitored client.
	SessionID string
	// Tgen is the aggregated timestamp (elapsed seconds since the
	// client's system start) of the window the estimate is for.
	Tgen float64
	// RTTF is the predicted remaining time to failure, seconds.
	RTTF float64
	// ModelVersion and ModelName identify the registry entry that
	// produced the estimate (versions start at 1 and grow with every
	// Deploy).
	ModelVersion uint64
	ModelName    string
}

// Alert is an estimate that crossed the alert threshold from above —
// the "act now" signal of the paper's proactive-rejuvenation loop.
type Alert struct {
	Estimate
	// Threshold is the configured alert level, seconds.
	Threshold float64
}

// AlertFunc consumes threshold-crossing alerts.
type AlertFunc func(Alert)

// EstimateFunc consumes every emitted estimate.
type EstimateFunc func(Estimate)

// ModelSource supplies deployments on demand — the hook that connects
// the service to wherever fresh models come from (a retraining
// pipeline, a model file, a registry service).
type ModelSource interface {
	Deployment(ctx context.Context) (*Deployment, error)
}

// ModelSourceFunc adapts a function to ModelSource.
type ModelSourceFunc func(ctx context.Context) (*Deployment, error)

// Deployment implements ModelSource.
func (f ModelSourceFunc) Deployment(ctx context.Context) (*Deployment, error) { return f(ctx) }

// EvictedSession is the final snapshot of a session the idle-TTL sweep
// removed: its id, its last estimate (if it ever received one), and
// how many estimates it consumed — everything a spill-to-disk or
// audit hook needs, returned exactly once per eviction.
type EvictedSession struct {
	// ID names the monitored client the session belonged to.
	ID string
	// Last is the most recent estimate delivered to the session; only
	// meaningful when HasEstimate is true.
	Last Estimate
	// HasEstimate reports whether the session ever received an estimate.
	HasEstimate bool
	// Estimates counts the estimates the session received in total.
	Estimates uint64
}

// EvictFunc consumes evicted-session snapshots.
type EvictFunc func(EvictedSession)

// Shed describes one window dropped by the ShedPolicy — who lost it,
// not just that something was lost: the session, its priority, the
// window's aggregated timestamp, and the shard queue depth that
// triggered the drop. Delivered to the WithShedFunc hook and counted
// per priority in Stats.ShedByPriority, so operators (and fleetsim
// assertions) can verify that only below-floor sessions pay under
// overload.
type Shed struct {
	// SessionID names the session whose window was dropped.
	SessionID string
	// Priority is the session's load-shedding priority (below the
	// policy floor by construction).
	Priority int
	// Tgen is the aggregated timestamp of the dropped window.
	Tgen float64
	// QueueDepth is the shard's pending depth at the moment of the
	// drop (at or past the policy's MaxQueueDepth).
	QueueDepth int
}

// ShedFunc consumes shed-window notifications.
type ShedFunc func(Shed)

// Service is the prediction service: a versioned model registry, the
// sharded session set, and the batching dispatchers. All methods are
// safe for concurrent use. The service stops — sessions refuse further
// pushes, the dispatchers drain and exit — when the context given to
// New is cancelled or Close is called.
type Service struct {
	cfg    config
	agg    aggregate.Config
	names  []string
	colIdx map[string]int

	ctx    context.Context
	cancel context.CancelFunc

	// now is the pluggable time source (WithClock; default time.Now):
	// activity stamps and the idle-TTL cutoff read scenario time from
	// it, so a virtual-clock harness controls eviction deterministically.
	now func() time.Time

	cur      atomic.Pointer[modelVersion]
	nextVer  atomic.Uint64
	deployMu sync.Mutex // serializes Deploy (version allocation + store)

	shards []*shard
	// closed flips before the per-shard closed flags: StartSession
	// checks it so no session can appear on a shard the shutdown pass
	// has not reached yet.
	closed       atomic.Bool
	shutdownOnce sync.Once
	wg           sync.WaitGroup

	// shedPol is the live shed policy: seeded from WithShedPolicy and
	// swappable at runtime via SetShedPolicy, so a supervisor can raise
	// or lower the floor under sustained overload without a restart.
	// Enqueue loads it once per window, so a swap takes effect on the
	// next completed window with no lock on the hot path.
	shedPol atomic.Pointer[ShedPolicy]

	// sessionCount is the global active-session count: reserved before
	// insert in StartSession so WithMaxSessions holds exactly across
	// shards without a global lock.
	sessionCount atomic.Int64
	queueDepth   atomic.Int64
	shedWindows  atomic.Uint64
	// shedByPrio breaks shedWindows down by session priority. Guarded
	// by shedMu (nested inside the shard lock on the shed path, so the
	// per-priority totals always sum to shedWindows exactly).
	shedMu          sync.Mutex
	shedByPrio      map[int]uint64
	predictions     atomic.Uint64
	alerts          atomic.Uint64
	evicted         atomic.Uint64
	refreshes       atomic.Uint64
	refreshFailures atomic.Uint64
	lastBatchNs     atomic.Int64
	lastBatchSize   atomic.Int64
	coalBatches     atomic.Uint64
	coalWindows     atomic.Uint64
}

// New builds and starts a prediction service. The initial model comes
// from WithDeployment or, failing that, from WithModelSource; one of
// the two is required. Cancelling ctx closes the service.
func New(ctx context.Context, opts ...Option) (*Service, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("serve: WithShards(%d): shard count must be non-negative", cfg.shards)
	}
	if cfg.shed.MaxQueueDepth < 0 || cfg.shed.MinPriority < 0 {
		return nil, fmt.Errorf("serve: ShedPolicy fields must be non-negative: %+v", cfg.shed)
	}
	dep := cfg.dep
	if dep == nil && cfg.source != nil {
		var err error
		if dep, err = cfg.source.Deployment(ctx); err != nil {
			return nil, fmt.Errorf("serve: pulling initial model: %w", err)
		}
	}
	if dep == nil || dep.Model == nil {
		return nil, ErrNoModel
	}
	if err := dep.Aggregation.Validate(); err != nil {
		return nil, fmt.Errorf("serve: deployment aggregation: %w", err)
	}
	la, err := aggregate.NewLiveAggregator(dep.Aggregation)
	if err != nil {
		return nil, err
	}
	names := la.ColNames()
	nShards := cfg.shards
	if nShards == 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:    cfg,
		agg:    dep.Aggregation,
		names:  names,
		colIdx: make(map[string]int, len(names)),
		shards: make([]*shard, nShards),
		now:    cfg.now,
	}
	if s.now == nil {
		s.now = time.Now
	}
	shed := cfg.shed
	s.shedPol.Store(&shed)
	for i := range s.shards {
		s.shards[i] = &shard{
			idx:      i,
			sessions: make(map[string]*Session),
			kick:     make(chan struct{}, 1),
		}
	}
	for i, n := range names {
		s.colIdx[n] = i
	}
	mv, err := newModelVersion(dep, s.colIdx)
	if err != nil {
		return nil, err
	}
	mv.version = s.nextVer.Add(1)
	s.cur.Store(mv)
	if cfg.refreshInterval > 0 && cfg.source == nil {
		return nil, fmt.Errorf("serve: WithRefreshInterval requires a ModelSource")
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	if cfg.manual {
		// Manual dispatch: no dispatchers, sweeper, or refresher — the
		// caller drives Flush/SweepIdleNow/Refresh. One watcher keeps
		// the shutdown contract: cancelling the context (or Close)
		// still drains every queued window exactly once.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			<-s.ctx.Done()
			s.shutdownOnce.Do(s.shutdown)
		}()
		return s, nil
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.dispatcher(sh)
	}
	if cfg.sessionTTL > 0 {
		s.wg.Add(1)
		go s.sweeper()
	}
	if cfg.refreshInterval > 0 {
		s.wg.Add(1)
		go s.refresher()
	}
	return s, nil
}

// refresher is the auto-refresh loop behind WithRefreshInterval: each
// tick pulls a deployment from the ModelSource and hot-swaps it; a
// failed pull keeps the current model and the next tick retries.
func (s *Service) refresher() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.refreshInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			_, _ = s.Refresh(s.ctx)
		}
	}
}

// ColNames returns the full aggregated column layout sessions emit.
func (s *Service) ColNames() []string { return append([]string(nil), s.names...) }

// Aggregation returns the windowing configuration the service runs.
func (s *Service) Aggregation() aggregate.Config { return s.agg }

// ModelVersion returns the currently served registry version.
func (s *Service) ModelVersion() uint64 { return s.cur.Load().version }

// Deploy atomically hot-swaps the served model and returns the new
// registry version. The deployment must have been trained under the
// service's aggregation config (its feature subset may differ — the
// projection is rebuilt). In-flight batches finish with the model they
// snapshotted; every window enqueued after Deploy returns is predicted
// by the new model, on every shard: a dispatcher snapshots the
// registry after its last take, so a row enqueued post-Deploy can only
// land in a batch whose snapshot already sees the new model.
func (s *Service) Deploy(dep *Deployment) (uint64, error) {
	if dep == nil || dep.Model == nil {
		return 0, ErrNoModel
	}
	if dep.Aggregation != s.agg {
		return 0, ErrAggregationMismatch
	}
	mv, err := newModelVersion(dep, s.colIdx)
	if err != nil {
		return 0, err
	}
	// Serialize concurrent deploys so a failed attempt never burns a
	// version and the served version never moves backwards.
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	mv.version = s.nextVer.Add(1)
	s.cur.Store(mv)
	return mv.version, nil
}

// SetShedPolicy hot-swaps the load-shedding policy. The change takes
// effect on the next completed window; windows already queued are
// unaffected. This is the overload actuator of the autonomic loop: a
// supervisor watching Stats.QueueDepth and ShedByPriority can tighten
// the floor under sustained overload and relax it once the queue
// drains, without restarting the service. The zero policy disables
// shedding.
func (s *Service) SetShedPolicy(p ShedPolicy) error {
	if p.MaxQueueDepth < 0 || p.MinPriority < 0 {
		return fmt.Errorf("serve: ShedPolicy fields must be non-negative: %+v", p)
	}
	s.shedPol.Store(&p)
	return nil
}

// ShedPolicy returns the currently active load-shedding policy.
func (s *Service) ShedPolicy() ShedPolicy { return *s.shedPol.Load() }

// Refresh pulls a fresh deployment from the configured ModelSource and
// hot-swaps it in, returning the new registry version. A source that
// hands back the same *Deployment it served last time is a no-op: the
// current version keeps serving and no registry version is burned, so
// an auto-refresh ticker over an unchanged model stays quiet.
func (s *Service) Refresh(ctx context.Context) (uint64, error) {
	if s.cfg.source == nil {
		return 0, fmt.Errorf("serve: Refresh without a ModelSource")
	}
	dep, err := s.cfg.source.Deployment(ctx)
	if err != nil {
		s.refreshFailures.Add(1)
		return 0, fmt.Errorf("serve: pulling model: %w", err)
	}
	if cur := s.cur.Load(); cur.origin == dep {
		return cur.version, nil
	}
	ver, err := s.Deploy(dep)
	if err == nil {
		s.refreshes.Add(1)
	}
	return ver, err
}

// HandleDatapoint implements monitor.StreamHandler: datapoints from the
// FMS stream feed the sender's session, which is auto-created on first
// contact (datapoints for clients beyond the session limit are
// dropped).
func (s *Service) HandleDatapoint(clientID string, d trace.Datapoint) {
	ss, ok := s.Session(clientID)
	if !ok {
		var err error
		if ss, err = s.StartSession(clientID); err != nil {
			return
		}
	}
	_ = ss.Push(d)
}

// HandleFail implements monitor.StreamHandler: a fail event flushes the
// session's current window and resets it for the client's next run.
func (s *Service) HandleFail(clientID string, tgen float64) {
	if ss, ok := s.Session(clientID); ok {
		_ = ss.EndRun()
	}
}

var _ monitor.StreamHandler = (*Service)(nil)

// Close stops the service: the dispatchers drain queued windows and
// exit, sessions are closed, and further pushes fail with
// ErrServiceClosed. Close is idempotent and equivalent to cancelling
// the context given to New; it returns once the drain has finished.
func (s *Service) Close() error {
	s.cancel()
	s.wg.Wait()
	return nil
}
