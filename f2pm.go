// Package f2pm is the public API of this reproduction of "A Machine
// Learning-based Framework for Building Application Failure Prediction
// Models" (Pellegrini, Di Sanzo, Avresky — IPDPS Workshops 2015).
//
// F2PM builds models that predict the Remaining Time To Failure (RTTF)
// of an application accumulating software anomalies (memory leaks,
// unterminated threads), using only system-level features sampled by a
// thin monitor — no application instrumentation.
//
// The typical flow mirrors the paper's Figure 1:
//
//	history := ...                     // collect via the FMC/FMS monitor,
//	                                   // load from CSV, or simulate (Testbed)
//	pipe, _ := f2pm.NewPipeline(f2pm.DefaultConfig())
//	report, _ := pipe.Run(history)     // aggregate → select → train → validate
//	best := report.Best()              // lowest S-MAE model
//	rttf := best.Model.Predict(features)
//
// # Incremental retraining
//
// The paper's collection loop — "further system runs can be executed
// to collect new data ... and to produce new models" — is served by
// Pipeline.Update: after Run, feed the pipeline the same history
// extended with newly completed failure runs (e.g. accumulated from
// the live monitor feeding a LiveAggregator on the deployment side)
// and every model is brought up to date at a cost scaling with the
// new data, not the whole history:
//
//	report, _ = pipe.Update(history)   // history = old runs + new runs
//
// Under the hood, only the new runs are aggregated; the LS-SVM
// extends its kernel system with a bordered Cholesky factorization
// (internal/mat's Cholesky.Extend over a grown kernel row store), the
// Lasso models fold the new rows into their retained covariance state
// with rank-1 updates, the regularization path re-solves the whole λ
// grid from one shared covariance (lasso FitPath, behind LassoPath),
// and the remaining learners refit on the combined set. Large buffers
// are recycled through an internal pool, so steady-state retrains and
// single-sample Predict calls stop paying allocation and page-zeroing
// costs.
//
// # Sliding-window retraining
//
// Grow-only incremental retraining still accumulates the whole history
// — a problem for deployments that retrain continuously for weeks.
// Config.Window bounds it: under a WindowPolicy (max runs and/or max
// monitored age), Update also *evicts* the oldest runs from everything
// the pipeline retains, at a cost scaling with the rows moved, not the
// history:
//
//	cfg := f2pm.DefaultConfig()
//	cfg.Window = f2pm.WindowPolicy{MaxRuns: 200}   // or MaxAgeSec
//	pipe, _ := f2pm.NewPipeline(cfg)
//	report, _ = pipe.Update(history)               // append AND evict
//
// Under the hood the LS-SVM downdates its Cholesky factor in place (a
// blocked Householder sweep absorbs the evicted columns' outer
// product, with a jittered re-factorization fallback for
// ill-conditioned windows), its flat kernel row store advances a ring
// head, the Lasso covariance subtracts the departing rows with rank-1
// downdates, and the feature-selection path re-solves from the same
// windowed covariance. Models that cannot slide refit on the surviving
// window. Parity is exact to numerical tolerance: a slide matches a
// from-scratch fit on the surviving window, while steady-state slides
// run entirely inside pre-reserved buffer headroom — flat memory, no
// growth, and a ~3-4x speedup over the rebuild at n=1000 (see
// BENCH_*_pr4.json: SlideWindow vs SlideScratch).
//
// # Serving
//
// The deployment side — the paper's always-on loop where a monitor
// streams system features and the framework continuously emits RTTF
// estimates — is the serving layer: a PredictionService owns a
// versioned model registry and any number of per-client sessions, each
// running a LiveAggregator; completed windows across all sessions are
// predicted in batches, and threshold-crossing alerts drive the
// proactive action:
//
//	dep, _ := f2pm.DeploymentFromReport(report)   // best model + feature
//	                                              // subset + agg config
//	svc, _ := f2pm.NewPredictionService(ctx,
//	    f2pm.WithDeployment(dep),
//	    f2pm.WithAlertFunc(60, func(a f2pm.Alert) { /* rejuvenate */ }))
//	srv, _ := f2pm.NewMonitorServer(addr, f2pm.WithMonitorStream(svc))
//
// FMS-received datapoints now feed sessions directly (auto-created per
// client id): monitor → aggregate → predict → act in one process. As
// retraining produces new models, svc.Deploy(dep) hot-swaps the served
// model atomically — in-flight batches finish with the model they
// snapshotted, and everything enqueued after Deploy returns uses the
// new one, including Lasso-selected models whose feature projection is
// rebuilt from the deployment. WithRefreshInterval wires the swap to a
// ModelSource ticker so retrained models go live hands-off, and
// WithSessionTTL bounds the serving tier's memory the same way the
// WindowPolicy bounds training: idle sessions are evicted by a
// background sweep (final snapshots via WithSessionEvictFunc), while
// Stats exposes queue depth, batch latency, and the
// eviction/refresh counters for backpressure monitoring.
// SaveDeployment/LoadDeployment persist a deployment with its feature
// subset and aggregation config, so a model file alone is enough to
// serve correctly.
//
// The serving hot path is sharded for fleet-scale client counts
// (WithServeShards, default GOMAXPROCS): sessions hash onto shards,
// each with its own pending queue, dispatcher goroutine, and slice of
// the session map, so enqueue, prediction, and the idle-TTL sweep
// contend per shard instead of on one service lock — a sweep over 10⁵
// sessions never stalls the other shards' predictions, and the
// hot-swap freshness guarantee holds shard by shard. Under sustained
// overload, WithShedPolicy turns unbounded queue growth into bounded,
// priority-ordered loss: past a per-shard queue depth, completed
// windows of sessions below the priority floor (WithSessionPriority)
// are dropped with exact accounting (ErrWindowShed,
// ServeStats.ShedWindows — attributed per priority in
// ServeStats.ShedByPriority) while higher-priority sessions keep their
// zero-drop guarantee.
//
// A session lives on the shard its id hashes to (FNV-1a) for its whole
// life; nothing moves sessions between shards. What levels dispatch
// load instead is work sharing, always on and not configurable: a
// dispatcher whose own batch is small serves its ring neighbors'
// queues in the same PredictBatch call, under the same exactness
// invariants as a per-shard batch — per-session estimate order,
// post-Deploy freshness, and predicted+shed exactly partitioning
// accepted. ServeStats.ShardLoads exposes the per-shard snapshots and
// ServeStats.CoalescedBatches/CoalescedWindows count the merges.
//
// # Remote registry
//
// One process caps out at one machine; the remote model registry is
// the control plane that lets N serving nodes share one trainer. A
// ModelRegistry (daemonized as cmd/fmr) serves modelio deployment
// envelopes over HTTP with strong ETags — quoted SHA-256 of the
// envelope bytes, so a tag changes iff the bytes change — and serving
// nodes poll it with conditional GETs through an HTTPModelSource on
// the refresh ticker: an unchanged model costs one 304 round-trip and
// the refresh stays a version-free no-op. The trainer publishes with
// PublishDeployment (or cmd/f2pm -publish); garbage envelopes are
// rejected with the load error and the current model keeps serving:
//
//	reg := f2pm.NewModelRegistry()        // or: fmr -listen :7071 -persist reg.model
//	go http.ListenAndServe(":7071", reg)
//	_, _ = f2pm.PublishDeployment(ctx, "http://127.0.0.1:7071", dep)
//
//	src := f2pm.NewHTTPModelSource("http://127.0.0.1:7071",
//	    f2pm.HTTPSourceConfig{CacheFile: "/var/lib/fms/last-good.model"})
//	svc, _ := f2pm.NewPredictionService(ctx,
//	    f2pm.WithModelSource(src), f2pm.WithRefreshInterval(10*time.Second))
//
// The registry is a convergence point, never a single point of
// failure: the source fails over stale-while-revalidate. When a poll
// fails — registry down, timeout, garbage response — the node keeps
// serving its last-good deployment (persisted to CacheFile across
// restarts, so even a cold boot during an outage serves immediately),
// a circuit breaker probes the dead registry on capped backoff
// instead of hammering it every tick, and the outage is surfaced
// rather than swallowed: ServeStats.RegistryStale/RegistryStaleAge/
// RegistryLastError, mirrored into node heartbeats so the registry's
// /v1/health view shows exactly which nodes are coasting and which
// have converged (RegistryHealth, per-node liveness and ETag match).
// After recovery the node converges to everything published during
// the outage within one poll interval. cmd/fms wires all of it up
// (-registry, -model-cache, -node); docs/registry-protocol.md is the
// wire contract; the failover path is proven by a race-enabled HTTP
// e2e test and the deterministic registry-outage fleetsim scenario.
//
// # Fleet simulation & chaos testing
//
// The whole train-serve loop is exercised end to end by the fleet
// chaos harness (cmd/fleetsim): a YAML scenario describes a fleet of
// simulated monitored applications — each a memory-leak ramp with the
// paper's TPC-W failure shape, expanded from weighted templates onto a
// spike or linear arrival ramp with seeded cold-start jitter — running
// against a real PredictionService. A seeded chaos engine injects
// crash-restarts, connection flaps, slow consumers, stale-model
// storms, and leak bursts at scripted virtual times, and in-scenario
// assertions check the system's invariants while the faults land:
// never-crashed sessions lose no completed windows, every shed window
// is attributed to a priority below the shed floor, retrains and
// redraws happen, predictions and alerts flow.
//
// Runs are deterministic by construction — a virtual clock, manual
// dispatch (no background goroutines), and a single seeded random
// source forked per subsystem — so the same scenario and seed always
// produce a byte-identical event log; `fleetsim run -replay-check`
// verifies it, and CI runs the committed smoke scenario race-enabled
// on every push. See examples/fleetsim for a walkthrough and
// examples/fleetsim/scenarios for the committed scenarios. The same
// fault-injection hooks the harness uses are part of the serving API:
// WithServeClock substitutes the service's time source,
// WithManualDispatch turns background dispatch off in favor of
// explicit Flush/SweepIdleNow calls, WithShedFunc observes every shed
// decision, and WithBatchFailpoint intercepts batches before
// prediction.
//
// # Autonomic operation
//
// The loop closes itself: a Supervisor (NewSupervisor) watches
// serving-side signals — feature drift from incremental updates,
// prediction error graded at each observed failure, serving queue
// depth, registry staleness — and decides through pluggable policies
// when to act: retrain, slide the training window, publish, redeploy
// locally, or reshard the load-shedding floor. The three shipped
// policy families cover the classic shapes (DriftPolicy: threshold;
// PredictionErrorPolicy: EWMA with hysteresis; OverloadPolicy:
// watermarks with rate-of-change), and the supervisor itself applies
// per-action cooldowns, defers publishes while the registry is stale
// (falling back to a local redeploy past a bound), and executes
// through caller-wired actuator functions.
//
// The supervisor owns no goroutines and no clock — signals carry
// timestamps, the caller ticks it (SuperviseService is the wall-clock
// convenience for daemons; cmd/fms -supervise uses it), and every
// proposal becomes a sequence-numbered Decision in a structured log,
// including the suppressed and deferred ones. Determinism is the
// point: the fleetsim harness drives a fully wired supervisor —
// retrains with 1e-8 warm-start parity checks, registry publishes,
// shed-policy reshards — on its virtual clock and replays the whole
// decision stream byte-for-byte (the supervisor-loop scenario runs
// with no manual retrain cadence at all). See docs/autonomic.md for
// the signal/policy/outcome contract and examples/autonomic for a
// scripted walkthrough.
//
// On the monitor side, DialMonitorRetry dials the FMS with capped
// exponential backoff and seeded jitter, and a Collector configured
// with Redial/Retry survives connection loss by reconnecting and
// resuming its stream in place — the server keys open runs by client
// id, so a resumed stream continues the same run.
//
// Long-running calls accept a context (RunContext, UpdateContext,
// DialMonitorContext, WithMonitorContext, NewPredictionService);
// cancellation stops sessions, the monitor server, and in-flight
// pipeline calls promptly. Failures surface through the Err* sentinel
// taxonomy (see errors.go) for errors.Is dispatch.
//
// Subsystems re-exported here:
//
//   - data model and CSV codec (History, Run, Datapoint)
//   - datapoint aggregation and derived metrics, batch and live
//   - Lasso feature selection (regularization paths)
//   - the six learning methods (linear regression, M5P, REP-Tree,
//     Lasso-as-predictor, ε-SVR, LS-SVM)
//   - the evaluation metrics (MAE, RAE, MaxAE, S-MAE, timings)
//   - the FMC/FMS TCP monitor with /proc and simulator feature sources
//   - the simulated TPC-W test-bed used by the paper reproduction
//
// Import path note: the module is named "repro"; import it as
//
//	import f2pm "repro"
package f2pm

import (
	"io"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/featsel"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/rtest"
	"repro/internal/trace"
)

// Data model (paper §III-A).
type (
	// Datapoint is one periodic measurement of all system features.
	Datapoint = trace.Datapoint
	// Run is one execution of the monitored system up to its fail event.
	Run = trace.Run
	// History is the full data history across runs.
	History = trace.History
	// FeatureIndex identifies a raw system feature.
	FeatureIndex = trace.FeatureIndex
	// FailCondition decides when the system counts as failed.
	FailCondition = trace.FailCondition
)

// Raw system features (paper §III-A order).
const (
	NumThreads = trace.NumThreads
	MemUsed    = trace.MemUsed
	MemFree    = trace.MemFree
	MemShared  = trace.MemShared
	MemBuffers = trace.MemBuffers
	MemCached  = trace.MemCached
	SwapUsed   = trace.SwapUsed
	SwapFree   = trace.SwapFree
	CPUUser    = trace.CPUUser
	CPUNice    = trace.CPUNice
	CPUSystem  = trace.CPUSystem
	CPUIOWait  = trace.CPUIOWait
	CPUSteal   = trace.CPUSteal
	CPUIdle    = trace.CPUIdle

	// NumFeatures is the raw feature count per datapoint.
	NumFeatures = trace.NumFeatures
)

// FeatureNames returns the canonical feature names in order.
func FeatureNames() []string { return trace.FeatureNames() }

// MemoryExhaustion returns the paper's default failure condition: free
// memory and free swap both below the given fractions of their totals.
func MemoryExhaustion(memFrac, swapFrac float64) FailCondition {
	return trace.MemoryExhaustion(memFrac, swapFrac)
}

// ThresholdCondition builds a single-feature threshold failure condition
// (dir >= 0 fires on >=, dir < 0 fires on <=).
func ThresholdCondition(f FeatureIndex, threshold float64, dir int) FailCondition {
	return trace.ThresholdCondition(f, threshold, dir)
}

// ReadHistoryCSV loads a data history written by WriteHistoryCSV.
func ReadHistoryCSV(r io.Reader) (*History, error) { return trace.ReadCSV(r) }

// WriteHistoryCSV persists a data history as CSV.
func WriteHistoryCSV(w io.Writer, h *History) error { return trace.WriteCSV(w, h) }

// HistoryCSVWriter streams a data history to CSV one run at a time
// (WriteRun, then Flush) without holding it in memory; what it writes
// is what WriteHistoryCSV writes for the same runs.
type HistoryCSVWriter = trace.CSVWriter

// NewHistoryCSVWriter writes the CSV header to w and returns the writer
// for the runs that follow.
func NewHistoryCSVWriter(w io.Writer) (*HistoryCSVWriter, error) { return trace.NewCSVWriter(w) }

// Aggregation (paper §III-B).
type (
	// AggregationConfig controls windowing and derived metrics.
	AggregationConfig = aggregate.Config
	// Dataset is the aggregated, RTTF-labeled dataset.
	Dataset = aggregate.Dataset
	// LiveAggregator builds aggregated rows from a live datapoint stream.
	LiveAggregator = aggregate.LiveAggregator
)

// Aggregate runs datapoint aggregation and derived-metric computation.
func Aggregate(h *History, cfg AggregationConfig) (*Dataset, error) {
	return aggregate.Aggregate(h, cfg)
}

// NewLiveAggregator returns a streaming aggregator with the same row
// layout as Aggregate, for live RTTF prediction.
func NewLiveAggregator(cfg AggregationConfig) (*LiveAggregator, error) {
	return aggregate.NewLiveAggregator(cfg)
}

// DefaultAggregationConfig returns 30 s windows with slopes and the
// inter-generation-time metric.
func DefaultAggregationConfig() AggregationConfig { return aggregate.DefaultConfig() }

// SplitMode selects how rows are assigned to the train/validation
// sides (Config.SplitMode).
type SplitMode = aggregate.SplitMode

// The split modes: by whole run (the paper's setup; keeps a run's rows
// together) or by row (finer-grained; guarantees both sides stay
// populated under small sliding windows).
const (
	SplitByRun = aggregate.SplitByRun
	SplitByRow = aggregate.SplitByRow
)

// Feature selection (paper §III-C).
type (
	// PathPoint is the outcome of Lasso regularization at one λ.
	PathPoint = featsel.PathPoint
	// FeatureWeight is one surviving feature weight.
	FeatureWeight = featsel.Weight
)

// LassoPath computes the regularization path over a λ grid.
func LassoPath(ds *Dataset, lambdas []float64) ([]PathPoint, error) {
	return featsel.Path(ds, lambdas)
}

// LambdaGrid returns powers of ten 10^loExp..10^hiExp (the paper's λ̄).
func LambdaGrid(loExp, hiExp int) []float64 { return featsel.LambdaGrid(loExp, hiExp) }

// Models and pipeline (paper §III-D).
type (
	// Regressor is a trainable RTTF model.
	Regressor = ml.Regressor
	// ModelSpec names a method and constructs fresh instances.
	ModelSpec = core.ModelSpec
	// Config assembles the pipeline.
	Config = core.Config
	// Pipeline is a configured F2PM instance.
	Pipeline = core.Pipeline
	// Report is the pipeline output with all trained models and metrics.
	Report = core.Report
	// ModelResult is one trained-and-validated model.
	ModelResult = core.ModelResult
	// FeatureSet distinguishes all-parameter and Lasso-selected training.
	FeatureSet = core.FeatureSet
	// Metrics bundles MAE, RAE, MaxAE, S-MAE and timings for one model.
	Metrics = metrics.Report
	// UpdateInfo describes what the last Pipeline.Update did to one
	// model (incremental extension vs refit, standardizer drift,
	// evicted-row count).
	UpdateInfo = ml.UpdateInfo
	// WindowPolicy bounds the history a long-lived pipeline retains
	// (Config.Window): Update evicts the oldest runs so continuous
	// retraining runs at flat memory.
	WindowPolicy = core.WindowPolicy
)

// The two training-set families of the paper's Tables II-IV.
const (
	AllParams   = core.AllParams
	LassoParams = core.LassoParams
)

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultModels returns the paper's six methods (the Lasso predictor
// once per λ in lassoLambdas).
func DefaultModels(lassoLambdas []float64) []ModelSpec { return core.DefaultModels(lassoLambdas) }

// NewPipeline validates cfg and returns a runnable pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// Evaluation metrics (paper §III-D).

// MAE is the mean absolute prediction error (eq. 5).
func MAE(predicted, observed []float64) (float64, error) { return metrics.MAE(predicted, observed) }

// RAE is the relative absolute prediction error (eq. 6).
func RAE(predicted, observed []float64) (float64, error) { return metrics.RAE(predicted, observed) }

// MaxAE is the maximum absolute prediction error.
func MaxAE(predicted, observed []float64) (float64, error) {
	return metrics.MaxAE(predicted, observed)
}

// SoftMAE is the soft mean absolute error: errors below threshold count
// as zero.
func SoftMAE(predicted, observed []float64, threshold float64) (float64, error) {
	return metrics.SoftMAE(predicted, observed, threshold)
}

// Response-time estimation (paper §III-B): the datapoint
// inter-generation time measured by the monitor correlates with the
// client-observed response time, giving an RT estimate with no
// client instrumentation.
type RTEstimator = rtest.Estimator

// FitRTEstimator builds the estimator from paired windowed series of
// inter-generation times and response times.
func FitRTEstimator(genTimes, rts []float64) (*RTEstimator, error) {
	return rtest.Fit(genTimes, rts)
}

// RTWindowPairs buckets raw observations into paired windows for
// FitRTEstimator.
func RTWindowPairs(sampleTimes, gaps, rtTimes, rts []float64, windowSec float64) (genSeries, rtSeries []float64, err error) {
	return rtest.WindowPairs(sampleTimes, gaps, rtTimes, rts, windowSec)
}
