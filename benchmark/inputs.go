package main

import (
	"fmt"
	"math"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/ml/lssvm"
	"repro/internal/ml/svm"
	"repro/internal/serve"
	"repro/internal/tpcw"
	"repro/internal/trace"
)

// campaign simulates a tpcw campaign of sec virtual seconds and returns
// its failed runs. The same seed gives the same runs.
func campaign(seed uint64, sec float64) ([]trace.Run, error) {
	tb, err := tpcw.NewTestbed(tpcw.DefaultTestbedConfig(seed))
	if err != nil {
		return nil, err
	}
	res, err := tb.Run(sec)
	if err != nil {
		return nil, err
	}
	runs := res.History.FailedRuns()
	if len(runs) < 4 {
		return nil, fmt.Errorf("campaign seed %d: only %d failed runs in %v s", seed, len(runs), sec)
	}
	return runs, nil
}

// servingRoster is what the serving workloads train: the two kernel
// machines, each on both column families. Deployment 0 is LS-SVM on
// the Lasso subset, deployment 1 (fleet-churn alternates the two) is
// ε-SVR on all 30 columns.
func servingRoster() []core.ModelSpec {
	return []core.ModelSpec{
		{Name: "svm2", DisplayName: "SVM2", New: func() (ml.Regressor, error) { return lssvm.New(lssvm.DefaultOptions()) }},
		{Name: "svm", DisplayName: "SVM", New: func() (ml.Regressor, error) { return svm.New(svm.DefaultOptions()) }},
	}
}

func pipelineConfig(models []core.ModelSpec, window core.WindowPolicy) core.Config {
	cfg := core.DefaultConfig()
	cfg.Aggregation = aggregation()
	cfg.SelectionLambda = selectionLambda
	cfg.Models = models
	cfg.Window = window
	return cfg
}

// deploymentOf builds the deployment of one named result, the way
// serve.FromReport does for the best one.
func deploymentOf(rep *core.Report, name string, fs core.FeatureSet) (*serve.Deployment, error) {
	res := rep.ByName(name, fs)
	if res == nil || res.Err != nil || res.Model == nil {
		return nil, fmt.Errorf("no %s/%s model in the report", name, fs)
	}
	dep := &serve.Deployment{Model: res.Model, Name: name, Aggregation: rep.Aggregation}
	if fs == core.LassoParams {
		dep.Features = append([]string(nil), rep.Selection.Selected...)
	}
	return dep, nil
}

// servingDeployments returns the two deployments of a serving report.
func servingDeployments(rep *core.Report) ([2]*serve.Deployment, error) {
	var deps [2]*serve.Deployment
	var err error
	if deps[0], err = deploymentOf(rep, "svm2", core.LassoParams); err != nil {
		return deps, err
	}
	deps[1], err = deploymentOf(rep, "svm", core.AllParams)
	return deps, err
}

// replayRun is one failed run a client replays, with what the benchmark
// needs to time and check it.
type replayRun struct {
	dps      []trace.Datapoint
	failTime float64
	// closes[k] reports that pushing dps[k] completes the window before
	// it; the fail event completes the last one.
	closes  []bool
	windows int
	// tgen[w] is window w's aggregated timestamp by the batch path.
	tgen []float64
	// rows[w] is window w's full aggregated row by the batch path.
	rows [][]float64
}

// newReplayRun computes the batch-path reference of one run.
func newReplayRun(run trace.Run, cfg aggregate.Config) (*replayRun, error) {
	ds, err := aggregate.Aggregate(&trace.History{Runs: []trace.Run{run}}, cfg)
	if err != nil {
		return nil, err
	}
	r := &replayRun{
		dps:      run.Datapoints,
		failTime: run.FailTime,
		closes:   make([]bool, len(run.Datapoints)),
		windows:  ds.NumRows(),
		tgen:     ds.AggTgen,
		rows:     ds.X,
	}
	closers := 1 // the fail event
	for k := 1; k < len(r.dps); k++ {
		if int(r.dps[k].Tgen/cfg.WindowSec) != int(r.dps[k-1].Tgen/cfg.WindowSec) {
			r.closes[k] = true
			closers++
		}
	}
	if closers != r.windows {
		return nil, fmt.Errorf("run closes %d windows, batch aggregation has %d", closers, r.windows)
	}
	return r, nil
}

func newReplayRuns(runs []trace.Run, cfg aggregate.Config) ([]*replayRun, error) {
	out := make([]*replayRun, len(runs))
	for i, run := range runs {
		var err error
		if out[i], err = newReplayRun(run, cfg); err != nil {
			return nil, fmt.Errorf("replay run %d: %w", i, err)
		}
	}
	return out, nil
}

// reference holds, per deployment and replay run, the estimate every
// window must get: Regressor.Predict on the batch-aggregated row, one
// row at a time — never the live path under test.
type reference struct {
	runs []*replayRun
	// rttf[dep][run][window]
	rttf [][][]float64
}

// projector maps a full aggregated row into dep's input order.
func projector(dep *serve.Deployment) func(row []float64) []float64 {
	if len(dep.Features) == 0 {
		return func(row []float64) []float64 { return row }
	}
	la, _ := aggregate.NewLiveAggregator(dep.Aggregation)
	names := la.ColNames()
	idx := make([]int, len(dep.Features))
	for i, f := range dep.Features {
		for j, n := range names {
			if n == f {
				idx[i] = j
			}
		}
	}
	return func(row []float64) []float64 {
		out := make([]float64, len(idx))
		for i, j := range idx {
			out[i] = row[j]
		}
		return out
	}
}

func newReference(runs []*replayRun, deps []*serve.Deployment) *reference {
	ref := &reference{runs: runs, rttf: make([][][]float64, len(deps))}
	for d, dep := range deps {
		proj := projector(dep)
		ref.rttf[d] = make([][]float64, len(runs))
		for r, run := range runs {
			out := make([]float64, run.windows)
			for w, row := range run.rows {
				out[w] = dep.Model.Predict(proj(row))
			}
			ref.rttf[d][r] = out
		}
	}
	return ref
}

// agrees reports whether a served value matches its reference to 1e-8
// relative.
func agrees(got, want float64) bool {
	return math.Abs(got-want) <= 1e-8*math.Max(1, math.Abs(want))
}
