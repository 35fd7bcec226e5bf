package f2pm

import (
	"context"
	"io"

	"repro/internal/ml/modelio"
	"repro/internal/monitor"
	"repro/internal/randx"
)

// Feature monitoring utilities (paper §III-E): the Feature Monitor
// Client/Server pair over TCP, with pluggable feature sources.
type (
	// MonitorServer is the FMS: it assembles per-client data histories
	// from datapoint/fail streams.
	MonitorServer = monitor.Server
	// MonitorServerOption configures an FMS.
	MonitorServerOption = monitor.ServerOption
	// MonitorServerStats counts what an FMS accepted and every reason
	// it dropped input or a connection (MonitorServer.Stats).
	MonitorServerStats = monitor.ServerStats
	// MonitorStreamHandler receives the live FMC event stream (a
	// PredictionService implements it).
	MonitorStreamHandler = monitor.StreamHandler
	// MonitorClient is the FMC: it ships datapoints and fail events.
	MonitorClient = monitor.Client
	// Collector drives a real-time FMC sampling loop.
	Collector = monitor.Collector
	// FeatureSource produces feature snapshots.
	FeatureSource = monitor.Source
	// FeatureSourceFunc adapts a function to FeatureSource.
	FeatureSourceFunc = monitor.SourceFunc
	// ProcSource samples a live Linux host through /proc.
	ProcSource = monitor.ProcSource
	// RetryBackoff is a capped exponential backoff policy with jitter,
	// used by DialMonitorRetry and the Collector's reconnect path (the
	// Collector.Retry field). The zero value means the defaults: 250 ms
	// base, 15 s cap, factor 2, ±20 % jitter, unlimited attempts.
	RetryBackoff = monitor.Backoff
	// RandomSource is a seeded deterministic random stream (xoshiro256**)
	// — the same generator the simulation layers use — for reproducible
	// retry jitter and fleet simulation.
	RandomSource = randx.Source
)

// NewRandomSource returns a deterministic random stream seeded with
// seed: the same seed always yields the same sequence.
func NewRandomSource(seed uint64) *RandomSource { return randx.New(seed) }

// NewMonitorServer starts an FMS on addr (use "host:0" for an ephemeral
// port; the chosen address is available via Addr). Options attach a
// live stream handler (WithMonitorStream), a destination for closed
// runs (WithMonitorRunSink) and tie the server lifetime to a context
// (WithMonitorContext). The server keeps a bounded number of each
// client's newest datapoints in memory (History); the run sink is how
// a long-lived server keeps them all.
func NewMonitorServer(addr string, opts ...MonitorServerOption) (*MonitorServer, error) {
	return monitor.NewServer(addr, opts...)
}

// WithMonitorStream feeds every accepted datapoint and fail event to h
// as the server assembles it — pass a *PredictionService to close the
// monitor → aggregate → predict → act loop in one process.
func WithMonitorStream(h MonitorStreamHandler) MonitorServerOption { return monitor.WithStream(h) }

// WithMonitorRunSink hands every run to sink as its fail event closes
// it — once, in wire order, from the client's connection goroutine,
// before the stream handler sees the fail. The run's datapoints are
// shared with the server: read them, do not modify them.
func WithMonitorRunSink(sink func(clientID string, run Run)) MonitorServerOption {
	return monitor.WithRunSink(sink)
}

// WithMonitorContext closes the server when ctx is cancelled.
func WithMonitorContext(ctx context.Context) MonitorServerOption {
	return monitor.WithServerContext(ctx)
}

// DialMonitor connects an FMC to the FMS at addr.
func DialMonitor(addr, clientID string) (*MonitorClient, error) {
	return monitor.Dial(addr, clientID)
}

// DialMonitorContext is DialMonitor under a caller-supplied context.
func DialMonitorContext(ctx context.Context, addr, clientID string) (*MonitorClient, error) {
	return monitor.DialContext(ctx, addr, clientID)
}

// DialMonitorRetry dials the FMS with capped exponential backoff: each
// failed attempt waits the policy's (jittered) delay and retries until
// the dial succeeds, ctx is cancelled, or MaxAttempts failures — so an
// FMC that boots before its FMS connects when the server appears
// instead of dying. Pass a seeded RandomSource for reproducible jitter,
// or nil for none.
func DialMonitorRetry(ctx context.Context, addr, clientID string, b RetryBackoff, rng *RandomSource) (*MonitorClient, error) {
	return monitor.DialRetryContext(ctx, addr, clientID, b, rng)
}

// NewProcSource returns a /proc-backed feature source (root "" means
// /proc).
func NewProcSource(root string) *ProcSource { return monitor.NewProcSource(root) }

// SaveModel persists a trained model (any of the six methods) as a
// versioned JSON envelope, for deployment without retraining. To carry
// the feature subset and aggregation config along, use SaveDeployment.
func SaveModel(w io.Writer, m Regressor) error { return modelio.Save(w, m) }

// LoadModel restores a model written by SaveModel; the result predicts
// immediately, no Fit needed.
func LoadModel(r io.Reader) (Regressor, error) { return modelio.Load(r) }
