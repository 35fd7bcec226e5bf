package f2pm_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	f2pm "repro"
	"repro/internal/autonomic"
)

// simulateHistory builds a small deterministic campaign through the
// public API only.
func simulateHistory(t testing.TB) *f2pm.TestbedResult {
	t.Helper()
	cfg := f2pm.DefaultTestbedConfig(7)
	cfg.Machine.TotalMemKB = 384 * 1024
	cfg.Machine.TotalSwapKB = 192 * 1024
	cfg.Machine.BaseUsedKB = 96 * 1024
	cfg.Machine.BaseSharedKB = 12 * 1024
	cfg.Machine.BaseBuffersKB = 12 * 1024
	cfg.Machine.MinCacheKB = 12 * 1024
	cfg.NumBrowsers = 12
	cfg.Browser.ThinkMeanSec = 2
	cfg.LeakProbRange = [2]float64{0.5, 0.9}
	cfg.LeakSizeKBRange = [2]float64{512, 2048}
	cfg.RebootDelaySec = 20
	tb, err := f2pm.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPublicAPIEndToEnd(t *testing.T) {
	res := simulateHistory(t)
	if len(res.History.FailedRuns()) < 3 {
		t.Fatalf("only %d failed runs", len(res.History.FailedRuns()))
	}

	// CSV round trip through the facade.
	var buf bytes.Buffer
	if err := f2pm.WriteHistoryCSV(&buf, &res.History); err != nil {
		t.Fatal(err)
	}
	loaded, err := f2pm.ReadHistoryCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalDatapoints() != res.History.TotalDatapoints() {
		t.Fatal("CSV round trip lost datapoints")
	}

	// Pipeline with a compact roster.
	cfg := f2pm.DefaultConfig()
	cfg.Aggregation.WindowSec = 15
	cfg.SelectionLambda = 1e5
	cfg.Models = f2pm.DefaultModels(nil)[:3] // linear, m5p, reptree
	pipe, err := f2pm.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pipe.Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	best := report.Best()
	if best == nil {
		t.Fatal("no best model")
	}
	if best.Report.RAE >= 1 {
		t.Fatalf("best model RAE = %v", best.Report.RAE)
	}

	// Live prediction with the trained model: stream one run's
	// datapoints through the live aggregator and predict.
	allParams := report.ByName(best.Spec.Name, f2pm.AllParams)
	if allParams == nil {
		t.Fatal("all-params model missing")
	}
	la, err := f2pm.NewLiveAggregator(cfg.Aggregation)
	if err != nil {
		t.Fatal(err)
	}
	run := loaded.FailedRuns()[0]
	predictions := 0
	for _, d := range run.Datapoints {
		if row, _, ok := la.Push(d); ok {
			p := allParams.Model.Predict(row)
			if math.IsNaN(p) {
				t.Fatal("live prediction is NaN")
			}
			predictions++
		}
	}
	if predictions < 5 {
		t.Fatalf("only %d live predictions", predictions)
	}
}

func TestPublicMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	obs := []float64{1, 2, 5}
	mae, err := f2pm.MAE(pred, obs)
	if err != nil || math.Abs(mae-2.0/3.0) > 1e-12 {
		t.Fatalf("MAE = (%v, %v)", mae, err)
	}
	if _, err := f2pm.RAE(pred, obs); err != nil {
		t.Fatal(err)
	}
	maxae, err := f2pm.MaxAE(pred, obs)
	if err != nil || maxae != 2 {
		t.Fatalf("MaxAE = (%v, %v)", maxae, err)
	}
	smae, err := f2pm.SoftMAE(pred, obs, 3)
	if err != nil || smae != 0 {
		t.Fatalf("SoftMAE = (%v, %v)", smae, err)
	}
}

func TestPublicFeatureHelpers(t *testing.T) {
	names := f2pm.FeatureNames()
	if len(names) != f2pm.NumFeatures {
		t.Fatal("feature names length wrong")
	}
	cond := f2pm.MemoryExhaustion(0.02, 0.02)
	var d f2pm.Datapoint
	d.Features[f2pm.MemUsed] = 1e6
	d.Features[f2pm.MemFree] = 5e5
	if cond(&d) {
		t.Fatal("healthy datapoint failed")
	}
	up := f2pm.ThresholdCondition(f2pm.NumThreads, 10, +1)
	d.Features[f2pm.NumThreads] = 11
	if !up(&d) {
		t.Fatal("threshold condition did not fire")
	}
}

func TestPublicLassoPath(t *testing.T) {
	res := simulateHistory(t)
	ds, err := f2pm.Aggregate(&res.History, f2pm.DefaultAggregationConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid := f2pm.LambdaGrid(0, 6)
	if len(grid) != 7 {
		t.Fatalf("grid = %v", grid)
	}
	path, err := f2pm.LassoPath(ds, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 7 {
		t.Fatalf("path length = %d", len(path))
	}
	if path[0].NumSelected() == 0 {
		t.Fatal("low λ selected nothing")
	}
}

func TestPublicMonitor(t *testing.T) {
	srv, err := f2pm.NewMonitorServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := f2pm.DialMonitor(srv.Addr(), "facade")
	if err != nil {
		t.Fatal(err)
	}
	var d f2pm.Datapoint
	d.Tgen = 1.5
	if err := cli.SendDatapoint(&d); err != nil {
		t.Fatal(err)
	}
	if err := cli.SendFail(2.0); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicModelPersistence(t *testing.T) {
	res := simulateHistory(t)
	cfg := f2pm.DefaultConfig()
	cfg.Aggregation.WindowSec = 15
	cfg.SelectionLambda = 0
	cfg.FeatureLambdas = nil
	cfg.Models = f2pm.DefaultModels(nil)[:3]
	pipe, err := f2pm.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pipe.Run(&res.History)
	if err != nil {
		t.Fatal(err)
	}
	best := report.Best()

	var buf bytes.Buffer
	if err := f2pm.SaveModel(&buf, best.Model); err != nil {
		t.Fatal(err)
	}
	restored, err := f2pm.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, 30)
	for i := range probe {
		probe[i] = float64(i * 1000)
	}
	if a, b := best.Model.Predict(probe), restored.Predict(probe); a != b {
		t.Fatalf("prediction drift after persistence: %v vs %v", a, b)
	}
}

func TestPublicRTEstimator(t *testing.T) {
	gen := []float64{1.5, 2, 3, 4, 5}
	rts := []float64{0.3, 0.4, 0.6, 0.8, 1.0}
	e, err := f2pm.FitRTEstimator(gen, rts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Pearson < 0.99 {
		t.Fatalf("Pearson = %v", e.Pearson)
	}
	if est := e.Estimate(3.5); math.Abs(est-0.7) > 0.05 {
		t.Fatalf("Estimate(3.5) = %v", est)
	}
	g, r, err := f2pm.RTWindowPairs(
		[]float64{1, 2, 11, 12, 21, 22}, []float64{1.5, 1.5, 2, 2, 3, 3},
		[]float64{1.5, 11.5, 21.5}, []float64{0.3, 0.4, 0.6}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 3 || len(r) != 3 {
		t.Fatalf("pairs = %d/%d", len(g), len(r))
	}
}

// TestPublicServing exercises the serving layer through the facade:
// pipeline → DeploymentFromReport (Lasso subset carried along) →
// SaveDeployment/LoadDeployment round trip → PredictionService fed by a
// real monitor server, with a hot-swap mid-stream, all under one
// cancellable context.
func TestPublicServing(t *testing.T) {
	res := simulateHistory(t)
	if len(res.History.FailedRuns()) < 3 {
		t.Fatalf("only %d failed runs", len(res.History.FailedRuns()))
	}
	cfg := f2pm.DefaultConfig()
	cfg.Aggregation.WindowSec = 15
	cfg.SelectionLambda = 1e6
	cfg.Models = f2pm.DefaultModels(nil)[:3]
	pipe, err := f2pm.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	report, err := pipe.RunContext(ctx, &res.History)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f2pm.DeploymentFromReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Aggregation != cfg.Aggregation {
		t.Fatalf("deployment aggregation %+v", dep.Aggregation)
	}
	if report.Best().Features == f2pm.LassoParams && len(dep.Features) == 0 {
		t.Fatal("Lasso winner deployed without its feature subset")
	}

	// Persistence round trip keeps the serving configuration.
	var buf bytes.Buffer
	if err := f2pm.SaveDeployment(&buf, dep); err != nil {
		t.Fatal(err)
	}
	dep2, err := f2pm.LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dep2.Aggregation != dep.Aggregation || len(dep2.Features) != len(dep.Features) {
		t.Fatalf("deployment round trip changed config: %+v vs %+v", dep2, dep)
	}

	// Serve the restored deployment behind a real FMS.
	var estimates atomic.Int64
	var lastVersion atomic.Uint64
	svc, err := f2pm.NewPredictionService(ctx,
		f2pm.WithDeployment(dep2),
		f2pm.WithMaxSessions(8),
		f2pm.WithEstimateFunc(func(e f2pm.Estimate) {
			estimates.Add(1)
			lastVersion.Store(e.ModelVersion)
			if math.IsNaN(e.RTTF) {
				t.Errorf("NaN estimate: %+v", e)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := f2pm.NewMonitorServer("127.0.0.1:0",
		f2pm.WithMonitorStream(svc), f2pm.WithMonitorContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := f2pm.DialMonitorContext(ctx, srv.Addr(), "vm-1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	runs := res.History.FailedRuns()
	stream := func(run f2pm.Run) {
		for i := range run.Datapoints {
			if err := cli.SendDatapoint(&run.Datapoints[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.SendFail(run.FailTime); err != nil {
			t.Fatal(err)
		}
	}
	stream(runs[0])
	waitAtLeast(t, &estimates, 5)

	// Hot-swap the all-params family's model in mid-stream.
	alt := report.ByName(report.Best().Spec.Name, f2pm.AllParams)
	if alt == nil {
		t.Fatal("all-params model missing")
	}
	ver, err := svc.Deploy(&f2pm.Deployment{
		Model: alt.Model, Name: alt.Spec.Name, Aggregation: cfg.Aggregation,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := estimates.Load()
	stream(runs[1])
	waitAtLeast(t, &estimates, before+5)
	if got := lastVersion.Load(); got != ver {
		t.Fatalf("post-swap estimates carry version %d, want %d", got, ver)
	}

	// Cancelling the shared context stops the service and the server.
	cancel()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.StartSession("late"); !errors.Is(err, f2pm.ErrServiceClosed) {
		t.Fatalf("StartSession after cancel: %v", err)
	}
}

// waitAtLeast polls an estimate counter (the TCP stream is async).
func waitAtLeast(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d estimates, want ≥ %d", c.Load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// constModel is the cheapest possible deployment payload.
type constModel struct{}

func (constModel) Name() string                     { return "const" }
func (constModel) Fit([][]float64, []float64) error { return nil }
func (constModel) Predict([]float64) float64        { return 100 }

// staleSource is a model source that always reports itself stale.
type staleSource struct {
	dep   *f2pm.Deployment
	since time.Time
}

func (s staleSource) Deployment(context.Context) (*f2pm.Deployment, error) { return s.dep, nil }
func (s staleSource) SourceStatus() f2pm.SourceStatus {
	return f2pm.SourceStatus{Stale: true, StaleSince: s.since, LastError: "registry down"}
}

// signalRecorder is a policy that proposes nothing and keeps every
// signal the supervisor hands it.
type signalRecorder struct {
	mu   sync.Mutex
	sigs []f2pm.SupervisorSignal
}

func (*signalRecorder) Name() string { return "recorder" }
func (r *signalRecorder) Evaluate(_ time.Time, sigs []f2pm.SupervisorSignal) []autonomic.Proposal {
	r.mu.Lock()
	r.sigs = append(r.sigs, sigs...)
	r.mu.Unlock()
	return nil
}

func (r *signalRecorder) find(kind f2pm.SupervisorSignalKind, ok func(f2pm.SupervisorSignal) bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sigs {
		if s.Kind == kind && ok(s) {
			return true
		}
	}
	return false
}

func (r *signalRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sigs)
}

// TestSuperviseService drives the daemon-shaped observer: a
// manual-dispatch service with three queued windows and a stale model
// source must show up on the supervisor's bus as queue-depth and
// staleness signals, and the returned stop function must survive
// concurrent double calls (run under -race).
func TestSuperviseService(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dep := &f2pm.Deployment{Model: constModel{}, Name: "const", Aggregation: f2pm.AggregationConfig{WindowSec: 10}}
	svc, err := f2pm.NewPredictionService(ctx,
		f2pm.WithModelSource(staleSource{dep: dep, since: time.Now().Add(-time.Minute)}),
		f2pm.WithManualDispatch(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ss, err := svc.StartSession("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	const queued = 3
	for w := 0; w <= queued; w++ {
		if err := ss.Push(f2pm.Datapoint{Tgen: float64(w*10 + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	rec := &signalRecorder{}
	sup, err := f2pm.NewSupervisor(f2pm.SupervisorConfig{Policies: []f2pm.SupervisorPolicy{rec}})
	if err != nil {
		t.Fatal(err)
	}
	stop := f2pm.SuperviseService(sup, svc, time.Millisecond, ctx.Done())

	deadline := time.Now().Add(5 * time.Second)
	for {
		depth := rec.find(f2pm.SignalQueueDepth, func(s f2pm.SupervisorSignal) bool { return s.Value == queued })
		stale := rec.find(f2pm.SignalStaleness, func(s f2pm.SupervisorSignal) bool {
			return s.Value >= 60 && s.Detail == "registry down"
		})
		if depth && stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("signals never reached the supervisor: queue depth %v, staleness %v", depth, stale)
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			stop()
		}()
	}
	close(start)
	wg.Wait()
	stop()

	// The loop is gone: no further signal arrives.
	time.Sleep(10 * time.Millisecond)
	n := rec.count()
	time.Sleep(10 * time.Millisecond)
	if got := rec.count(); got != n {
		t.Fatalf("observer still running after stop: %d signals grew to %d", n, got)
	}
}
