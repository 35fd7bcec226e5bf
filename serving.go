package f2pm

import (
	"context"
	"io"
	"time"

	"repro/internal/ml/modelio"
	"repro/internal/serve"
)

// Serving layer (paper §III-E deployment, §I's proactive-rejuvenation
// loop): a sessioned, context-aware prediction service with a
// hot-swappable model registry. See the package documentation's
// "Serving" section for the end-to-end flow.
type (
	// PredictionService owns the model registry, the per-client
	// sessions, and the batching dispatcher.
	PredictionService = serve.Service
	// ServeSession is one monitored client inside a PredictionService.
	ServeSession = serve.Session
	// Deployment is a servable model plus its feature subset and
	// aggregation config.
	Deployment = serve.Deployment
	// Estimate is one RTTF prediction for one session.
	Estimate = serve.Estimate
	// Alert is an estimate that crossed the alert threshold.
	Alert = serve.Alert
	// ModelSource supplies deployments on demand (retraining pipeline,
	// model file, registry service).
	ModelSource = serve.ModelSource
	// ModelSourceFunc adapts a function to ModelSource.
	ModelSourceFunc = serve.ModelSourceFunc
	// ServeOption configures a PredictionService.
	ServeOption = serve.Option
	// SessionOption configures one session.
	SessionOption = serve.SessionOption
	// ServeStats is a snapshot of service counters (queue depth, batch
	// latency, session/eviction/refresh accounting).
	ServeStats = serve.Stats
	// EvictedSession is the final snapshot of a session removed by the
	// idle-TTL sweep.
	EvictedSession = serve.EvictedSession
	// ShedPolicy configures priority-based load shedding under
	// sustained overload (WithShedPolicy): past a per-shard queue
	// depth, windows of sessions below the priority floor are dropped
	// with exact accounting instead of queued.
	ShedPolicy = serve.ShedPolicy
	// Shed describes one window dropped by the ShedPolicy: the session,
	// its priority, the window timestamp, and the triggering queue
	// depth. Delivered via WithShedFunc; per-priority totals are in
	// ServeStats.ShedByPriority.
	Shed = serve.Shed
	// ShardLoad is one shard's load snapshot (sessions, queue depth,
	// cumulative windows) — the element of ServeStats.ShardLoads.
	ShardLoad = serve.ShardLoad
)

// NewPredictionService builds and starts a prediction service; the
// initial model comes from WithDeployment or WithModelSource.
// Cancelling ctx closes the service (sessions stop, queued windows are
// drained).
func NewPredictionService(ctx context.Context, opts ...ServeOption) (*PredictionService, error) {
	return serve.New(ctx, opts...)
}

// DeploymentFromReport extracts the report's best model as a
// deployment, carrying the Lasso-selected feature subset and the
// aggregation config along — the bridge from Pipeline.Run/Update to
// the serving layer.
func DeploymentFromReport(rep *Report) (*Deployment, error) { return serve.FromReport(rep) }

// WithDeployment sets the service's initial model.
func WithDeployment(dep *Deployment) ServeOption { return serve.WithDeployment(dep) }

// WithModelSource sets where the service pulls deployments from (the
// initial model, and every Refresh).
func WithModelSource(src ModelSource) ServeOption { return serve.WithModelSource(src) }

// WithEstimateFunc registers a service-wide estimate consumer.
func WithEstimateFunc(fn func(Estimate)) ServeOption { return serve.WithEstimateFunc(fn) }

// WithAlertFunc raises an edge-triggered alert whenever a session's
// predicted RTTF crosses below threshold seconds.
func WithAlertFunc(threshold float64, fn func(Alert)) ServeOption {
	return serve.WithAlertFunc(threshold, fn)
}

// WithMaxSessions bounds the number of concurrently active sessions.
func WithMaxSessions(n int) ServeOption { return serve.WithMaxSessions(n) }

// WithSessionTTL evicts sessions idle longer than ttl via a background
// sweep, bounding session memory for long-lived deployments (windows
// already queued are still predicted; evicted clients re-register on
// their next datapoint).
func WithSessionTTL(ttl time.Duration) ServeOption { return serve.WithSessionTTL(ttl) }

// WithSessionEvictFunc consumes each evicted session's final snapshot
// (id, Latest estimate, estimate count) exactly once.
func WithSessionEvictFunc(fn func(EvictedSession)) ServeOption {
	return serve.WithSessionEvictFunc(fn)
}

// WithRefreshInterval pulls a fresh deployment from the ModelSource
// every d and hot-swaps it in, so retrained models go live without the
// caller invoking Refresh.
func WithRefreshInterval(d time.Duration) ServeOption { return serve.WithRefreshInterval(d) }

// WithServeShards sets how many shards (and dispatcher goroutines) the
// prediction service runs: sessions hash onto shards by id, each with
// its own pending queue, dispatcher, and slice of the session map, so
// enqueue, prediction, and the idle sweep contend per shard instead of
// on one service lock; a dispatcher with a small batch also serves its
// neighbors' queues. 0 (the default) uses GOMAXPROCS.
func WithServeShards(n int) ServeOption { return serve.WithShards(n) }

// WithShedPolicy enables priority-based load shedding under sustained
// overload: past the policy's per-shard queue depth, completed windows
// of sessions below the priority floor are dropped (ErrWindowShed) and
// counted exactly in ServeStats.ShedWindows instead of queued.
func WithShedPolicy(p ShedPolicy) ServeOption { return serve.WithShedPolicy(p) }

// WithShedFunc registers a consumer for shed-window notifications — one
// call per dropped window with the session id, priority, window
// timestamp, and triggering queue depth, so operators see who loses
// windows under overload, not just how many.
func WithShedFunc(fn func(Shed)) ServeOption { return serve.WithShedFunc(fn) }

// WithServeClock sets the prediction service's time source (default
// time.Now) — the fault-injection hook that lets a simulation harness
// run the serving tier under a virtual clock.
func WithServeClock(now func() time.Time) ServeOption { return serve.WithClock(now) }

// WithManualDispatch disables the service's background goroutines:
// completed windows accumulate until an explicit Flush, the idle sweep
// runs only via SweepIdleNow, and refresh only via Refresh. Combined
// with WithServeClock this makes the serving tier deterministic under a
// single driving goroutine — the fleetsim harness's replay mode.
func WithManualDispatch() ServeOption { return serve.WithManualDispatch() }

// WithBatchFailpoint installs a chaos-testing hook called before every
// prediction batch with the shard index and batch size; stalling in it
// simulates a slow consumer and builds real backpressure.
func WithBatchFailpoint(fn func(shard, size int)) ServeOption { return serve.WithBatchFailpoint(fn) }

// OnEstimate registers a per-session estimate consumer.
func OnEstimate(fn func(Estimate)) SessionOption { return serve.OnEstimate(fn) }

// WithSessionPriority sets the session's load-shedding priority
// (default 0): under a ShedPolicy, sessions below the policy's
// MinPriority floor are shed first; sessions at or above it are never
// shed.
func WithSessionPriority(p int) SessionOption { return serve.WithSessionPriority(p) }

// SaveDeployment persists a deployment — model plus feature subset and
// aggregation config — as a versioned envelope, so Lasso-selected
// models deploy correctly from the file alone.
func SaveDeployment(w io.Writer, dep *Deployment) error {
	return modelio.SaveWithMeta(w, dep.Model, dep.Meta())
}

// LoadDeployment restores a deployment written by SaveDeployment (or by
// SaveModel, in which case the feature subset is empty and the
// aggregation config zero — the caller supplies the windowing).
func LoadDeployment(r io.Reader) (*Deployment, error) {
	m, meta, err := modelio.LoadWithMeta(r)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{Model: m, Name: m.Name()}
	if meta != nil {
		dep.Features = meta.Features
		if meta.Aggregation != nil {
			dep.Aggregation = *meta.Aggregation
		}
	}
	return dep, nil
}
