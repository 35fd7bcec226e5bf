package serve

import (
	"time"
)

// ShedPolicy is the load-shedding configuration: past a per-shard
// queue depth, completed windows of sessions below the priority floor
// are dropped instead of queued. Queue growth is the service's
// backpressure signal (Stats.QueueDepth); the policy turns sustained
// growth into bounded, priority-ordered loss instead of unbounded
// latency for everyone. The zero value never sheds.
type ShedPolicy struct {
	// MaxQueueDepth is the per-shard pending-window depth at which
	// shedding starts (0 disables shedding entirely). Depth is checked
	// at enqueue time under the shard lock, so the accounting is exact:
	// every completed window is either predicted exactly once or
	// counted in Stats.ShedWindows exactly once.
	MaxQueueDepth int
	// MinPriority is the priority floor: sessions whose priority
	// (WithSessionPriority, default 0) is below it are shed first —
	// i.e. their windows are dropped while the shard is over
	// MaxQueueDepth. Sessions at or above the floor are never shed.
	MinPriority int
}

// Option configures a Service.
type Option func(*config)

type config struct {
	dep             *Deployment
	source          ModelSource
	estimateFunc    EstimateFunc
	alertFunc       AlertFunc
	alertBelow      float64
	maxSessions     int
	sessionTTL      time.Duration
	evictFunc       EvictFunc
	refreshInterval time.Duration
	shards          int
	shed            ShedPolicy
	shedFunc        ShedFunc
	now             func() time.Time
	manual          bool
	batchFailpoint  func(shard, size int)
}

// WithDeployment sets the initial model.
func WithDeployment(dep *Deployment) Option {
	return func(c *config) { c.dep = dep }
}

// WithModelSource sets where the service pulls deployments from: the
// initial model at New (unless WithDeployment supplied one), and again
// on every Refresh — the hot-swap path for "further system runs ...
// produce new models".
func WithModelSource(src ModelSource) Option {
	return func(c *config) { c.source = src }
}

// WithEstimateFunc registers a service-wide estimate consumer, invoked
// from the dispatch goroutines in per-session order. It must be fast
// and must not call back into Flush or Close. With more than one shard
// it may be invoked concurrently for different sessions — and one
// session's estimates may arrive from different goroutines over time,
// its home shard's dispatcher or a neighbor's that served the queue —
// so it must be safe for concurrent use.
func WithEstimateFunc(fn EstimateFunc) Option {
	return func(c *config) { c.estimateFunc = fn }
}

// WithAlertFunc raises an alert whenever a session's predicted RTTF
// crosses below threshold seconds (edge-triggered: one alert per
// crossing, re-armed when the prediction recovers or the run ends).
// Like WithEstimateFunc it may be invoked concurrently, from any
// shard's dispatcher.
func WithAlertFunc(threshold float64, fn AlertFunc) Option {
	return func(c *config) { c.alertBelow, c.alertFunc = threshold, fn }
}

// WithMaxSessions bounds the number of concurrently active sessions
// (0 = unlimited).
func WithMaxSessions(n int) Option {
	return func(c *config) { c.maxSessions = n }
}

// WithSessionTTL bounds session memory for million-client deployments:
// a background sweep evicts sessions that saw no activity (pushes,
// flushes, or estimate deliveries) for longer than ttl. Evicted
// sessions behave like closed ones — windows already queued are still
// predicted and counted, further pushes fail with ErrSessionClosed,
// and a client that reconnects through the FMS stream simply gets a
// fresh session. The sweep walks one shard at a time, so it never
// stalls the enqueue/predict hot path of the other shards. Pick a ttl
// comfortably above the monitoring sampling interval, or live sessions
// churn. 0 (the default) disables eviction.
func WithSessionTTL(ttl time.Duration) Option {
	return func(c *config) { c.sessionTTL = ttl }
}

// WithSessionEvictFunc registers a consumer for evicted-session
// snapshots (WithSessionTTL): each eviction delivers the session's id
// and Latest() estimate exactly once, from the sweep goroutine — the
// hook for spilling long-idle client state to disk.
func WithSessionEvictFunc(fn EvictFunc) Option {
	return func(c *config) { c.evictFunc = fn }
}

// WithRefreshInterval makes the service pull a fresh deployment from
// its ModelSource every d and hot-swap it in — the paper's "further
// runs produce new models" loop without the caller ever invoking
// Refresh. Pull errors leave the current model serving and the next
// tick retries. Requires WithModelSource; 0 (the default) disables the
// ticker.
//
// Unchanged models are detected by pointer identity: a source should
// cache its *Deployment and hand the same pointer back until a new
// model exists (see Refresh), or every tick burns a registry version
// re-deploying an identical model.
func WithRefreshInterval(d time.Duration) Option {
	return func(c *config) { c.refreshInterval = d }
}

// WithShards sets how many shards (and dispatcher goroutines) the
// service runs. A session lives on the shard its id hashes to
// (FNV-1a) for its whole life; each shard owns a slice of the session
// map, its own pending queue, and one dispatcher, so enqueue,
// prediction, and the idle sweep contend per shard instead of on one
// service lock. A dispatcher whose batch is small also serves its
// neighbors' queues in the same PredictBatch call (coalesce.go). 0
// (the default) uses GOMAXPROCS. One shard reproduces the
// single-dispatcher behavior exactly.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithShedPolicy enables priority-based load shedding under sustained
// overload: when a shard's pending queue is past the policy's depth
// threshold, completed windows of sessions below the priority floor
// are dropped (Push returns ErrWindowShed) instead of queued, and
// counted exactly in Stats.ShedWindows. The zero policy never sheds.
func WithShedPolicy(p ShedPolicy) Option {
	return func(c *config) { c.shed = p }
}

// WithShedFunc registers a consumer for shed-window notifications: one
// call per dropped window, carrying the session id, its priority, the
// window timestamp, and the triggering queue depth. The hook is called
// from the shedding goroutine (the session's pusher) with no lock held;
// it must be fast and safe for concurrent use across sessions. The
// per-priority totals are also available lock-free via
// Stats.ShedByPriority, so the hook is for event-level consumers
// (structured logs, fleetsim event streams), not counting.
func WithShedFunc(fn ShedFunc) Option {
	return func(c *config) { c.shedFunc = fn }
}

// WithClock sets the service's time source (default time.Now). This is
// the serving layer's first fault-injection hook: a simulator can run
// the service under a virtual clock, so idle-TTL eviction and activity
// stamps follow scenario time rather than wall time and a seeded
// scenario replays deterministically. The function must be safe for
// concurrent use and must never go backwards.
func WithClock(now func() time.Time) Option {
	return func(c *config) { c.now = now }
}

// WithManualDispatch disables every background goroutine of the
// service — the per-shard dispatchers, the idle-TTL sweeper, and the
// auto-refresh ticker. Completed windows accumulate in the shard
// queues until the caller invokes Flush (prediction and all callbacks
// run on the calling goroutine, in enqueue order per shard); the idle
// sweep runs only via SweepIdleNow and model refresh only via Refresh.
// Combined with WithClock this makes the service fully deterministic
// under a single driving goroutine: the fleetsim harness uses it to
// replay seeded chaos scenarios to identical event logs. Shutdown
// semantics are unchanged — Close (or cancelling the context) still
// drains every queued window before returning.
func WithManualDispatch() Option {
	return func(c *config) { c.manual = true }
}

// WithBatchFailpoint installs a hook called immediately before every
// prediction batch with the shard index and batch size — a failure
// point for chaos testing. The hook runs on the dispatching goroutine
// with no lock held, so it can stall (simulating a slow consumer and
// building real backpressure), panic (crash testing), or just count.
// It must not call back into Flush or Close.
func WithBatchFailpoint(fn func(shard, size int)) Option {
	return func(c *config) { c.batchFailpoint = fn }
}
