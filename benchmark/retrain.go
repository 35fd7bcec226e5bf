package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/featsel"
	"repro/internal/mat"
	"repro/internal/ml/kernel"
	"repro/internal/ml/modelio"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/trace"
)

// retrain-publish is the training half. A trainer holds a pipeline
// fitted on the first coldRuns failed runs of a CSV history; a serving
// node pulls its model from a registry over loopback HTTP. Between
// cycles the node serves a client's run (from -seed); a cycle adds the
// history's next run: Update, FromReport, SaveWithMeta, Publish,
// Refresh, and the client's next window served by the new model. One
// goroutine does all of it, in that order.

// trainer is the system under test of this workload.
type trainer struct {
	in   *inputs
	hist *trace.History // what the trainer has seen so far
	// later holds the history's runs after the cold ones; one arrives per
	// cycle, and around again should a phase outlast them.
	later []trace.Run
	pipe  *core.Pipeline
	rep   *core.Report
	dep   *serve.Deployment // trainer-side copy of what the node serves

	reg     *registry.Server
	httpSrv *http.Server
	served  chan struct{}
	url     string
	pub     *registry.Client
	src     *serve.HTTPModelSource
	svc     *serve.Service
	sess    *serve.Session
	cancel  context.CancelFunc

	start     time.Time
	est       []estRec // written by the dispatch goroutine
	delivered atomic.Int64
	// wake is signalled after every estimate, so that the one goroutine
	// of this workload can wait for its estimates without a timer (a
	// sleep on the baseline box lasts a millisecond at least).
	wake     chan struct{}
	envelope []byte
}

func (t *trainer) clock() int64 { return int64(time.Since(t.start)) }

func (t *trainer) close() {
	if t.svc != nil {
		t.svc.Close()
	}
	if t.cancel != nil {
		t.cancel()
	}
	if t.httpSrv != nil {
		t.httpSrv.Close()
		<-t.served
	}
}

type retrainSetup struct {
	total, readCSV, pipelineRun time.Duration
}

// interval is a stretch of the phase clock, in ns.
type interval struct{ start, end int64 }

func (iv interval) dur() time.Duration { return time.Duration(iv.end - iv.start) }

// publish saves the report's best model and puts it on the registry.
func (t *trainer) publish(ctx context.Context, save, put *interval) error {
	dep, err := serve.FromReport(t.rep)
	if err != nil {
		return err
	}
	save.start = t.clock()
	var buf bytes.Buffer
	if err := modelio.SaveWithMeta(&buf, dep.Model, dep.Meta()); err != nil {
		return fmt.Errorf("SaveWithMeta: %w", err)
	}
	save.end = t.clock()
	put.start = save.end
	if _, err := t.pub.Publish(ctx, buf.Bytes()); err != nil {
		return err
	}
	put.end = t.clock()
	t.dep, t.envelope = dep, buf.Bytes()
	return nil
}

// setupRetrain reads the history, fits the cold pipeline with the
// paper's whole roster on both column families, publishes the best
// model and starts a node that serves it from the registry.
func setupRetrain(in *inputs) (*trainer, retrainSetup, error) {
	var times retrainSetup
	t0 := time.Now()
	t := &trainer{in: in, served: make(chan struct{}), wake: make(chan struct{}, 1)}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()

	hist, err := trace.ReadCSV(bytes.NewReader(in.csv))
	if err != nil {
		return nil, times, err
	}
	times.readCSV = time.Since(t0)
	t.hist = &trace.History{Runs: hist.Runs[:coldRuns:coldRuns]}
	t.later = hist.Runs[coldRuns:]
	cfg := core.DefaultConfig()
	cfg.Aggregation = in.agg
	cfg.SelectionLambda = selectionLambda
	cfg.Window = core.WindowPolicy{MaxRuns: coldRuns}
	if t.pipe, err = core.New(cfg); err != nil {
		return nil, times, err
	}
	tRun := time.Now()
	if t.rep, err = t.pipe.Run(t.hist); err != nil {
		return nil, times, fmt.Errorf("Pipeline.Run: %w", err)
	}
	times.pipelineRun = time.Since(tRun)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, times, err
	}
	t.reg = registry.New()
	t.httpSrv = &http.Server{Handler: t.reg}
	go func() {
		defer close(t.served)
		t.httpSrv.Serve(ln) // returns when close() closes the server
	}()
	t.url = "http://" + ln.Addr().String()
	t.pub = registry.NewClient(t.url, nil)
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	var save, put interval
	if err := t.publish(ctx, &save, &put); err != nil {
		return nil, times, err
	}
	t.src = serve.NewHTTPModelSource(t.url, serve.HTTPSourceConfig{})
	t.svc, err = serve.New(ctx,
		serve.WithModelSource(t.src),
		serve.WithEstimateFunc(func(e serve.Estimate) {
			t.est = append(t.est, estRec{at: t.clock(), rttf: e.RTTF, tgen: e.Tgen, ver: e.ModelVersion})
			t.delivered.Add(1)
			select {
			case t.wake <- struct{}{}:
			default:
			}
		}),
		serve.WithAlertFunc(0, func(serve.Alert) {}),
	)
	if err != nil {
		return nil, times, fmt.Errorf("serve.New: %w", err)
	}
	if t.sess, err = t.svc.StartSession("node-stream"); err != nil {
		return nil, times, err
	}
	times.total = time.Since(t0)
	ok = true
	return t, times, nil
}

// cycleTimes is one retrain cycle as timed from outside.
type cycleTimes struct {
	// cycle runs from the start of Update to the first estimate by the
	// new model; the others are the calls inside it.
	cycle, update, save, publish, refresh, first interval
	incremental, models                          int
	fetch, load, notModified                     time.Duration // traced cycles only
	// The datapoints of the run the cycle trained on, and what the
	// whole iteration — a client's run served, then the cycle — took
	// on the clock, for the per-datapoint rates.
	datapoints int64
	wall, cpu  time.Duration
}

// retrainOut is a phase of cycles as measured.
type retrainOut struct {
	datapoints int64
	windows    int64
	busy       time.Duration // wall time on the clock
	rss        float64
	latency    []sample
	cycles     []cycleTimes
	attempted  int64
	failed     int64
	why        []string
}

func (o *retrainOut) failf(format string, args ...any) {
	o.failed++
	if len(o.why) < 5 {
		o.why = append(o.why, fmt.Sprintf(format, args...))
	}
}

// stream pushes run's datapoints from position from until upTo windows
// have completed (all of them, and the fail event, when upTo < 0),
// waits for their estimates, and returns the position reached. Each
// window is timed from the start of the push that completes it.
func (t *trainer) stream(run *replayRun, from, upTo int, out *retrainOut) (int, error) {
	var due []int64
	first := len(t.est)
	k := from
	for ; k < len(run.dps); k++ {
		if upTo >= 0 && len(due) == upTo {
			break
		}
		if run.closes[k] {
			due = append(due, t.clock())
		}
		if err := t.sess.Push(run.dps[k]); err != nil {
			return k, err
		}
		out.datapoints++
	}
	if k == len(run.dps) && upTo < 0 {
		due = append(due, t.clock())
		if err := t.sess.EndRun(); err != nil {
			return k, err
		}
	}
	want := int64(first + len(due))
	timeout := time.After(10 * time.Second)
	for t.delivered.Load() < want {
		select {
		case <-t.wake:
		case <-timeout:
			return k, fmt.Errorf("%d of %d estimates within 10 s", t.delivered.Load()-int64(first), len(due))
		}
	}
	for i, d := range due {
		// Sliced by cycle, not by second: the model changes with the cycle.
		out.latency = append(out.latency, sample{at: int64(len(out.cycles)), dur: t.est[first+i].at - d})
	}
	out.windows += int64(len(due))
	return k, nil
}

// verify checks, off the clock, the estimates t.est[from:] of run's
// windows starting at window w0 against the trainer's own copy of the
// served model — one Predict per batch-aggregated row — and that the
// version ver served them all. It must run before the next Update,
// which extends that copy in place.
func (t *trainer) verify(run *replayRun, from, w0 int, ver uint64, out *retrainOut) {
	proj := projector(t.dep)
	for i, e := range t.est[from:] {
		w := w0 + i
		out.attempted++
		if w >= run.windows {
			out.failf("estimate %d beyond the run's %d windows", w, run.windows)
			continue
		}
		want := t.dep.Model.Predict(proj(run.rows[w]))
		switch {
		case e.ver != ver:
			out.failf("window %d served by version %d after Refresh returned %d", w, e.ver, ver)
		case !agrees(e.rttf, want):
			out.failf("window %d: RTTF %v, reference %v", w, e.rttf, want)
		case !agrees(e.tgen, run.tgen[w]):
			out.failf("window %d: Tgen %v, reference %v", w, e.tgen, run.tgen[w])
		}
	}
}

// cycles runs retrain cycles for d. traced adds, off the clock, the
// three registry and envelope probes to every cycle.
func (t *trainer) cycles(d time.Duration, traced bool, out *retrainOut) error {
	ctx := context.Background()
	runs := t.in.replay
	streamed := 0 // replay runs begun
	t.start = time.Now()
	t.est = t.est[:0]
	t.delivered.Store(0)
	var paused time.Duration
	var pausedCPU time.Duration
	ver := t.svc.ModelVersion()
	pos, w0, checked := 0, 0, 0
	for {
		iterStart, iterCPU := time.Now(), cpuTime()
		iterPaused, iterPausedCPU := paused, pausedCPU
		run := runs[streamed%len(runs)]
		// The rest of the run streams through the node.
		var err error
		if pos, err = t.stream(run, pos, -1, out); err != nil {
			return err
		}
		p0, c0 := time.Now(), cpuTime()
		t.verify(run, checked, w0, ver, out)
		checked = len(t.est)
		done := time.Since(t.start) >= d && len(out.cycles) >= 3
		paused += time.Since(p0)
		pausedCPU += cpuTime() - c0
		if done {
			break
		}

		// The cycle: the history's next run becomes training data and
		// the model it yields reaches the node.
		var c cycleTimes
		c.cycle.start = t.clock()
		c.update.start = c.cycle.start
		arrived := t.later[(len(t.hist.Runs)-coldRuns)%len(t.later)]
		t.hist.Runs = append(t.hist.Runs, arrived)
		if t.rep, err = t.pipe.Update(t.hist); err != nil {
			return fmt.Errorf("Pipeline.Update: %w", err)
		}
		c.update.end = t.clock()
		prev := t.envelope
		if err := t.publish(ctx, &c.save, &c.publish); err != nil {
			return err
		}
		c.refresh.start = t.clock()
		newVer, err := t.svc.Refresh(ctx)
		if err != nil {
			return fmt.Errorf("Refresh: %w", err)
		}
		c.refresh.end = t.clock()
		c.first.start = c.refresh.end
		// A run that fell on the validation side can leave the best
		// model byte-identical; the registry then answers 304 and the
		// version rightly stays.
		if changed := !bytes.Equal(prev, t.envelope); changed != (newVer > ver) {
			out.failf("Refresh returned version %d after %d, envelope changed: %v", newVer, ver, changed)
		}
		ver = newVer
		streamed++
		if pos, err = t.stream(runs[streamed%len(runs)], 0, 1, out); err != nil {
			return err
		}
		c.first.end = t.clock()
		c.cycle.end = c.first.end
		w0 = 0
		for i := range t.rep.Results {
			if r := &t.rep.Results[i]; r.Err == nil {
				c.models++
				if r.Update.Incremental {
					c.incremental++
				}
			}
		}
		out.attempted += 4 // Update, Publish, Refresh, first estimate
		if traced {
			p0, c0 := time.Now(), cpuTime()
			if err := t.probeRegistry(ctx, &c); err != nil {
				return err
			}
			paused += time.Since(p0)
			pausedCPU += cpuTime() - c0
		}
		c.datapoints = int64(len(arrived.Datapoints))
		c.wall = time.Since(iterStart) - (paused - iterPaused)
		c.cpu = cpuTime() - iterCPU - (pausedCPU - iterPausedCPU)
		out.cycles = append(out.cycles, c)
		if len(out.cycles) == rssCycle {
			// Memory is read after a fixed number of cycles (retention
			// grows with every version trained and published), off the
			// clock: the collections it forces are not the program's.
			p0, c0 := time.Now(), cpuTime()
			out.rss = retainedRSS()
			paused += time.Since(p0)
			pausedCPU += cpuTime() - c0
		}
	}
	out.busy = time.Since(t.start) - paused
	if len(out.cycles) < rssCycle {
		out.rss = retainedRSS()
	}
	out.attempted += out.datapoints
	return nil
}

// probeRegistry times what Refresh does inside, from outside: the GET,
// the envelope load, and the conditional GET of an unchanged model.
func (t *trainer) probeRegistry(ctx context.Context, c *cycleTimes) error {
	t0 := time.Now()
	data, _, err := t.pub.FetchModel(ctx)
	if err != nil {
		return err
	}
	c.fetch = time.Since(t0)
	t1 := time.Now()
	if _, _, err := modelio.LoadWithMeta(bytes.NewReader(data)); err != nil {
		return err
	}
	c.load = time.Since(t1)
	t2 := time.Now()
	if _, err := t.svc.Refresh(ctx); err != nil {
		return err
	}
	c.notModified = time.Since(t2)
	return nil
}

func runRetrain(cfg *runConfig) (*result, error) {
	in, err := newRetrainInputs(cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.Correct = true
	var t *trainer
	var total, read, run []time.Duration
	for rep := 0; rep < cfg.reps(retrainSetupReps); rep++ {
		if t != nil {
			t.close()
		}
		var st retrainSetup
		if t, st, err = setupRetrain(in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		total, read, run = append(total, st.total), append(read, st.readCSV), append(run, st.pipelineRun)
	}
	defer t.close()
	res.set("setup_s", median(seconds(total)))
	res.set("pipeline_run_s", median(seconds(run)))

	if !cfg.trace {
		var out retrainOut
		if err := t.cycles(cfg.dur(1), false, &out); err != nil {
			return nil, err
		}
		t.account(res, &out)
		// Per-datapoint rates are medians over cycles, like the cycle
		// time itself: a cycle something else slowed does not move them.
		res.set("dp_per_s", cycleMedianOf(&out, func(c *cycleTimes) float64 { return float64(c.datapoints) / c.wall.Seconds() }))
		res.set("cpu_us_per_dp", cycleMedianOf(&out, func(c *cycleTimes) float64 { return float64(c.cpu) / 1e3 / float64(c.datapoints) }))
		p50, slices := sliceMedian(out.latency, 1, 0.50, 20)
		p95, _ := sliceMedian(out.latency, 1, 0.95, 20)
		res.set("est_latency_p50_ms", p50/1e6)
		res.set("est_latency_p95_ms", p95/1e6)
		res.set("rss_mb", out.rss)
		res.set("retrain_to_serve_ms", cycleMedian(&out, func(c *cycleTimes) time.Duration { return c.cycle.dur() }))
		res.note("%d cycles, %d datapoints served, %d windows in %d cycle-long slices, %.2f s on the clock",
			len(out.cycles), out.datapoints, out.windows, slices, out.busy.Seconds())
		return res, nil
	}

	var plain, traced retrainOut
	if err := t.cycles(cfg.dur(0.3), false, &plain); err != nil {
		return nil, err
	}
	if err := t.cycles(cfg.dur(0.5), true, &traced); err != nil {
		return nil, err
	}
	t.account(res, &plain)
	t.account(res, &traced)
	spans := cycleSpans(traced.cycles)
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	stats := summarize(spans)
	ms := func(k spanKind) float64 { return quantileOf(stats[k].durs, 0.5) / 1e6 }
	res.set("core.update_ms_p50", ms(spanUpdate))
	res.set("modelio.save_ms", ms(spanSave))
	res.set("registry.publish_ms", ms(spanPublish))
	res.set("serve.refresh_ms", ms(spanRefresh))
	res.set("registry.fetch_ms", cycleMedian(&traced, func(c *cycleTimes) time.Duration { return c.fetch }))
	res.set("modelio.load_ms", cycleMedian(&traced, func(c *cycleTimes) time.Duration { return c.load }))
	res.set("registry.not_modified_us", 1e3*cycleMedian(&traced, func(c *cycleTimes) time.Duration { return c.notModified }))
	res.set("modelio.envelope_kb", float64(len(t.envelope))/1024)
	res.set("trace.read_csv_ms", median(seconds(read))*1e3)
	var inc, models int
	for _, c := range traced.cycles {
		inc, models = inc+c.incremental, models+c.models
	}
	res.set("core.update_incremental_share", float64(inc)/float64(models))
	if best := t.rep.Best(); best != nil {
		res.set("core.best_smae_s", best.Report.SoftMAE)
	}
	perDp := func(o *retrainOut) float64 {
		return cycleMedianOf(o, func(c *cycleTimes) float64 { return float64(c.cpu) / float64(c.datapoints) })
	}
	res.set("trace.overhead_share", perDp(&traced)/perDp(&plain)-1)
	p99, _ := sliceMedian(traced.latency, 1, 0.99, 50)
	res.set("e2e.est_latency_p99_ms", p99/1e6)
	res.note("traced: %d cycles, %d spans; cycle self time (not in any child) %.2f ms mean",
		len(traced.cycles), len(spans), float64(stats[spanCycle].self)/float64(stats[spanCycle].count)/1e6)
	predictProbes(cfg, res, t.dep, &reference{runs: in.replay})
	if err := t.trainingProbes(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

func (t *trainer) account(res *result, out *retrainOut) {
	res.Attempted += out.attempted
	res.Failed += out.failed
	for _, w := range out.why {
		res.note("FAILED: %s", w)
	}
}

// cycleMedianOf is the median over cycles of a number taken from each.
func cycleMedianOf(out *retrainOut, pick func(*cycleTimes) float64) float64 {
	xs := make([]float64, len(out.cycles))
	for i := range out.cycles {
		xs[i] = pick(&out.cycles[i])
	}
	return median(xs)
}

// cycleMedian is the median over cycles of one of their times, in ms.
func cycleMedian(out *retrainOut, pick func(*cycleTimes) time.Duration) float64 {
	return cycleMedianOf(out, func(c *cycleTimes) float64 { return float64(pick(c)) / 1e6 })
}

// cycleSpans turns each cycle's timed calls into spans: the cycle and,
// inside it, the calls the benchmark made. What the children leave
// uncovered — FromReport, the bookkeeping between calls — is the
// cycle's self time.
func cycleSpans(cycles []cycleTimes) []span {
	var spans []span
	for n := range cycles {
		c := &cycles[n]
		for _, part := range []struct {
			kind, parent spanKind
			iv           interval
		}{
			{spanCycle, spanNone, c.cycle}, {spanUpdate, spanCycle, c.update}, {spanSave, spanCycle, c.save},
			{spanPublish, spanCycle, c.publish}, {spanRefresh, spanCycle, c.refresh}, {spanFirst, spanCycle, c.first},
		} {
			spans = append(spans, span{kind: part.kind, parent: part.parent, seq: int32(n), win: int32(n),
				start: part.iv.start, end: part.iv.end})
		}
	}
	return spans
}

// trainingProbes times, alone, the training-side layers a cycle spends
// its Update in: the Lasso path on the retained training set, and the
// RBF Gram matrix and its Cholesky factor at n = 1000.
func (t *trainer) trainingProbes(cfg *runConfig, res *result) error {
	train, _, ok := t.pipe.Datasets(core.AllParams)
	if !ok || train.NumRows() < 1000 {
		return errors.New("training probes need 1000 retained training rows")
	}
	lambdas := featsel.LambdaGrid(0, 9)
	res.set("featsel.path_ms", probeFor(cfg.probeDur(200*time.Millisecond), func() int {
		if _, err := featsel.Path(train, lambdas); err != nil {
			panic(err)
		}
		return 1
	})/1e6)
	std := kernel.FitStandardizer(train.X[:1000])
	X := std.ApplyAll(train.X[:1000])
	rbf := kernel.RBF{Gamma: kernel.AutoGamma(X)}
	var gram *mat.Dense
	res.set("mat.gram_rbf_n1000_ms", probeFor(cfg.probeDur(200*time.Millisecond), func() int {
		gram = kernel.Matrix(rbf, X)
		return 1
	})/1e6)
	for i := 0; i < gram.Rows(); i++ {
		gram.Set(i, i, gram.At(i, i)+0.1) // K + I/γ, the LS-SVM system
	}
	var cholErr error
	res.set("mat.cholesky_n1000_ms", probeFor(cfg.probeDur(200*time.Millisecond), func() int {
		if _, err := mat.NewCholesky(gram); err != nil {
			cholErr = err
		}
		return 1
	})/1e6)
	return cholErr
}
