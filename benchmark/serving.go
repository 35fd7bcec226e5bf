package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The three serving workloads share this file: a harness owns the
// service under test, the streams the generators replay into it, and
// the records the estimate callback leaves for the check that runs
// after the clock has stopped.

type servingKind int

const (
	kindWire servingKind = iota
	kindFleet
	kindChurn
)

// estRec is what the estimate callback records, and all it does.
type estRec struct {
	at         int64 // ns on the phase clock
	rttf, tgen float64
	ver        uint64
}

// closer is one window-completing event as the generator released it.
type closer struct {
	due   int64  // ns on the phase clock; -1 in a closed-loop phase
	floor uint64 // lowest model version that may serve the window
}

// cursor walks a stream's replay: which run, and how far into it. The
// next run is drawn from rng, so a second cursor started from the same
// state retraces the first.
type cursor struct {
	rng uint64
	run int
	pos int // datapoints (generator) or windows (checker) consumed
}

func (c *cursor) nextRun(runs int) {
	// xorshift64: all a replay order needs.
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	c.run = int(c.rng % uint64(runs))
	c.pos = 0
}

// stream is one monitored client: a session fed in-process or an FMC
// connection. The generator goroutine that owns it writes gen and
// closers; the dispatch goroutine delivering its estimates writes est;
// the check reads both after the phase has drained.
type stream struct {
	idx    int32
	id     string
	gen    cursor
	chk    cursor
	sess   *serve.Session  // fleet
	client *monitor.Client // wire
	traced bool
	sent   int32 // datapoints released in this phase
	// handled and handledWin count, on the server's connection
	// goroutine, the datapoints and window-completing events the
	// stream handler has seen in this phase (wire only).
	handled, handledWin int32
	lastWin             int
	handleSpans         *spanBuf

	closers chain[closer]
	est     chain[estRec]
}

func (st *stream) record(e serve.Estimate, at int64) {
	st.est.add(estRec{at: at, rttf: e.RTTF, tgen: e.Tgen, ver: e.ModelVersion})
}

// The records of every stream share two off-heap arenas, sized for far
// more windows than a phase completes (the pages are only mapped, not
// touched, until used).
var (
	closerArena = newArena[closer](16 << 20)
	estArena    = newArena[estRec](16 << 20)
)

type harness struct {
	kind servingKind
	cfg  *runConfig
	in   *inputs
	ref  *reference

	ctx    context.Context
	cancel context.CancelFunc
	pipe   *core.Pipeline
	svc    *serve.Service
	srv    *monitor.Server
	byID   map[string]*stream // wire: fixed before the first datapoint

	deps    [2]*serve.Deployment
	verDep  []int // verDep[v] is the deployment that version v serves
	nextDep int

	streams [generators][]*stream // active, by slot
	retired []*stream             // closed by churn, still checked
	rounds  [generators][]int     // one round of pushes, as slot numbers
	victims [generators]cursor    // churn's seeded choice of slot
	idMu    sync.Mutex            // guards nextID once the generators run
	nextID  int

	start     time.Time    // phase clock origin
	closed    atomic.Int64 // window-completing events released
	delivered atomic.Int64 // estimates delivered
	handled   atomic.Int64 // datapoints handed to the stream handler
	deployed  atomic.Uint64
	callErrs  atomic.Int64
	firstErr  atomic.Pointer[error]
}

func (h *harness) fail(err error) {
	if err == nil {
		return
	}
	h.callErrs.Add(1)
	h.firstErr.CompareAndSwap(nil, &err)
}

func (h *harness) clock() int64 { return int64(time.Since(h.start)) }

// onEstimate is the service-wide estimate consumer, as cmd/fms
// registers one. On the wire it finds the stream by id (sessions are
// auto-created there); fleet sessions carry their own OnEstimate.
func (h *harness) onEstimate(e serve.Estimate) {
	if st := h.byID[e.SessionID]; st != nil {
		st.record(e, h.clock())
	}
	h.delivered.Add(1)
}

// HandleDatapoint and HandleFail make the harness the StreamHandler
// between monitor.Server and the service, so that the hand-over is
// counted and, in a traced run, timed.
func (h *harness) HandleDatapoint(id string, d trace.Datapoint) {
	// Counted last: once the count is complete the phase may end, and
	// the records this goroutine writes must be complete by then.
	defer h.handled.Add(1)
	st := h.byID[id]
	if st == nil || !st.traced {
		h.svc.HandleDatapoint(id, d)
		return
	}
	win := int(d.Tgen / h.in.agg.WindowSec)
	sp := span{kind: spanHandle, parent: spanSend, stream: st.idx, seq: st.handled, win: st.handledWin}
	if st.lastWin >= 0 && win != st.lastWin {
		st.handledWin++
	}
	st.lastWin = win
	st.handled++
	sp.start = h.clock()
	h.svc.HandleDatapoint(id, d)
	sp.end = h.clock()
	st.handleSpans.add(sp)
}

func (h *harness) HandleFail(id string, tgen float64) {
	if st := h.byID[id]; st != nil {
		st.handledWin++
		st.lastWin = -1
	}
	h.svc.HandleFail(id, tgen)
}

func (h *harness) close() {
	for g := range h.streams {
		for _, st := range h.streams[g] {
			if st.client != nil {
				st.client.Close()
			}
		}
	}
	if h.srv != nil {
		h.srv.Close()
	}
	if h.svc != nil {
		h.svc.Close()
	}
	h.cancel()
}

// setupTimes is what one set-up repetition took.
type setupTimes struct {
	total, pipelineRun, retrainToServe time.Duration
}

// setupServing brings the system under test from a training history to
// a service with its clients attached: Pipeline.Run on all but the
// newest failed run, a service started on the LS-SVM deployment with
// the options cmd/fms passes, sessions or FMC connections opened, then
// one retrain — Update with the newest run, Deploy — timed to the first
// estimate the new model serves.
func setupServing(kind servingKind, cfg *runConfig, in *inputs) (*harness, setupTimes, error) {
	var times setupTimes
	t0 := time.Now()
	h := &harness{kind: kind, cfg: cfg, in: in}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	ok := false
	defer func() {
		if !ok {
			h.close()
		}
	}()

	pipe, err := core.New(pipelineConfig(servingRoster(), core.WindowPolicy{}))
	if err != nil {
		return nil, times, err
	}
	h.pipe = pipe
	n := len(in.train.Runs)
	tRun := time.Now()
	rep, err := pipe.Run(&trace.History{Runs: in.train.Runs[:n-1]})
	if err != nil {
		return nil, times, fmt.Errorf("Pipeline.Run: %w", err)
	}
	times.pipelineRun = time.Since(tRun)
	if h.deps, err = servingDeployments(rep); err != nil {
		return nil, times, err
	}

	// No serve knob is set: placement, coalescing, shedding and the
	// shard count are whatever the package defaults to.
	h.svc, err = serve.New(h.ctx,
		serve.WithDeployment(h.deps[0]),
		serve.WithEstimateFunc(h.onEstimate),
		serve.WithAlertFunc(0, func(serve.Alert) {}),
	)
	if err != nil {
		return nil, times, fmt.Errorf("serve.New: %w", err)
	}
	h.verDep = []int{0, 0} // version 1 serves deployment 0
	h.deployed.Store(1)

	switch kind {
	case kindWire:
		err = h.openWire()
	default:
		err = h.openFleet()
	}
	if err != nil {
		return nil, times, err
	}

	tUp := time.Now()
	rep, err = pipe.Update(in.train)
	if err != nil {
		return nil, times, fmt.Errorf("Pipeline.Update: %w", err)
	}
	if h.deps, err = servingDeployments(rep); err != nil {
		return nil, times, err
	}
	if err := h.deploy(); err != nil {
		return nil, times, err
	}
	if err := h.firstEstimate(); err != nil {
		return nil, times, err
	}
	times.retrainToServe = time.Since(tUp)
	times.total = time.Since(t0)
	ok = true
	return h, times, nil
}

// deploy hot-swaps the next deployment in (fleet-churn alternates the
// two) and publishes the version as the floor for windows released
// from now on.
func (h *harness) deploy() error {
	idx := h.nextDep % 2
	ver, err := h.svc.Deploy(h.deps[idx])
	if err != nil {
		return fmt.Errorf("Deploy: %w", err)
	}
	for uint64(len(h.verDep)) <= ver {
		h.verDep = append(h.verDep, idx)
	}
	h.deployed.Store(ver)
	return nil
}

// firstEstimate pushes a run into a throw-away session until the first
// window completes and waits for its estimate, which the model just
// deployed must serve.
func (h *harness) firstEstimate() error {
	got := make(chan serve.Estimate, 1)
	ss, err := h.svc.StartSession("setup-probe", serve.OnEstimate(func(e serve.Estimate) {
		select {
		case got <- e:
		default:
		}
	}))
	if err != nil {
		return err
	}
	defer ss.Close()
	run := h.in.replay[0]
	for k := range run.dps {
		if err := ss.Push(run.dps[k]); err != nil {
			return err
		}
		if run.closes[k] {
			break
		}
	}
	select {
	case e := <-got:
		if want := h.deployed.Load(); e.ModelVersion != want {
			return fmt.Errorf("first estimate after Deploy served by version %d, want %d", e.ModelVersion, want)
		}
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("no estimate within 10 s of Deploy")
	}
}

func (h *harness) newStream(id string) *stream {
	st := &stream{idx: int32(h.nextID), id: id, lastWin: -1, handleSpans: newSpanBuf(0)}
	st.closers.a, st.est.a = closerArena, estArena
	h.nextID++
	// Every stream starts from its own state, derived from the seed.
	st.gen.rng = (h.cfg.seed+1)*0x9E3779B97F4A7C15 ^ uint64(st.idx+1)*0xBF58476D1CE4E5B9
	st.gen.nextRun(len(h.in.replay))
	st.chk = st.gen
	return st
}

func (h *harness) openWire() error {
	var err error
	h.srv, err = monitor.NewServer("127.0.0.1:0", monitor.WithStream(h))
	if err != nil {
		return err
	}
	h.byID = map[string]*stream{}
	for g := 0; g < generators; g++ {
		st := h.newStream(fmt.Sprintf("fmc-%d", g))
		if st.client, err = monitor.Dial(h.srv.Addr(), st.id); err != nil {
			return err
		}
		h.byID[st.id] = st
		h.streams[g] = []*stream{st}
		h.rounds[g] = []int{0}
	}
	return nil
}

// startSession opens st's session with the stream as its estimate
// consumer.
func (h *harness) startSession(st *stream) error {
	var err error
	st.sess, err = h.svc.StartSession(st.id, serve.OnEstimate(func(e serve.Estimate) {
		st.record(e, h.clock())
	}))
	return err
}

func (h *harness) openFleet() error {
	shards := h.svc.Stats().Shards
	hot := 0
	if h.kind == kindChurn {
		hot = hotSessions
	}
	rng := cursor{rng: h.cfg.seed*0x94D049BB133111EB + 12345}
	for g := 0; g < generators; g++ {
		per := fleetSessions / generators
		for n := 0; n < per; n++ {
			var st *stream
			if n < hot/generators {
				// A hot session's id must hash onto shard 0.
				for try := 0; ; try++ {
					id := fmt.Sprintf("hot-%d-%d-%d", g, n, try)
					if (serve.HashPlacer{}).Place(id, shards) == 0 {
						st = h.newStream(id)
						break
					}
				}
			} else {
				st = h.newStream(fmt.Sprintf("fmc-%d-%04d", g, n))
			}
			if err := h.startSession(st); err != nil {
				return err
			}
			h.streams[g] = append(h.streams[g], st)
			pushes := 1
			if n < hot/generators {
				pushes = hotPushes
			}
			for p := 0; p < pushes; p++ {
				h.rounds[g] = append(h.rounds[g], n)
			}
			// Stagger the window phases.
			rng.nextRun(staggerDatapoints)
			run := h.in.replay[st.gen.run]
			for ; st.gen.pos < rng.run; st.gen.pos++ {
				if err := st.sess.Push(run.dps[st.gen.pos]); err != nil {
					return err
				}
			}
		}
		// Spread the hot sessions' pushes over the round.
		round := h.rounds[g]
		for i := len(round) - 1; i > 0; i-- {
			rng.nextRun(i + 1)
			round[i], round[rng.run] = round[rng.run], round[i]
		}
		h.victims[g] = cursor{rng: rng.rng ^ uint64(g+1)}
	}
	return nil
}

// phaseSpec is one measured phase. rate is the open-loop datapoint rate
// over all generators; 0 makes the phase a closed loop that runs for
// the duration instead of for a fixed number of datapoints.
type phaseSpec struct {
	rate     float64
	duration time.Duration
	traced   bool
}

// genOut is what one generator goroutine hands back.
type genOut struct {
	datapoints int64
	perSlice   []int64 // closed loop: datapoints released in each second
	late       []int64
	spans      *spanBuf
	startUs    []float64 // StartSession durations (churn)
	closeUs    []float64 // Session.Close durations (churn)
	deployUs   []float64 // Deploy durations (churn, generator 0)
}

// cpuSample is the process's CPU time at a moment of the phase clock.
type cpuSample struct {
	at  int64
	cpu time.Duration
}

// phaseOut is a phase as measured, before it is turned into metrics.
type phaseOut struct {
	spec       phaseSpec
	datapoints int64
	windows    int64
	elapsed    time.Duration // start to the last estimate delivered
	cpu        time.Duration
	rss        float64
	gcPause    time.Duration
	latency    []sample // per window: due time and due-to-estimate
	late       []int64
	depth      []int       // Stats().QueueDepth, every 10 ms
	batch      []int       // Stats().LastBatchSize, every 10 ms
	cpuAt      []cpuSample // process CPU time, every 10 ms
	first      serve.Stats
	last       serve.Stats
	gens       [generators]genOut
	spans      []span
	dropped    int64 // datapoints sent and never handed to the handler
	attempted  int64
	failed     int64
	why        []string // first few failures, for a human
}

func (p *phaseOut) failf(format string, args ...any) {
	p.failed++
	if len(p.why) < 5 {
		p.why = append(p.why, fmt.Sprintf(format, args...))
	}
}

// step releases the stream's next datapoint, and the run's fail event
// after its last one.
func (h *harness) step(st *stream, due int64, out *genOut) {
	run := h.in.replay[st.gen.run]
	k := st.gen.pos
	closing := run.closes[k]
	if closing {
		st.closers.add(closer{due, h.deployed.Load()})
	}
	var sp span
	if st.traced {
		sp = span{stream: st.idx, seq: st.sent, win: int32(st.closers.len())}
		if closing {
			sp.parent, sp.win = spanWindow, sp.win-1
		}
		sp.start = h.clock()
	}
	var err error
	if st.client != nil {
		err = st.client.SendDatapoint(&run.dps[k])
		sp.kind = spanSend
	} else {
		err = st.sess.Push(run.dps[k])
		sp.kind = spanPush
	}
	if st.traced {
		sp.end = h.clock()
		out.spans.add(sp)
	}
	h.fail(err)
	st.sent++
	st.gen.pos++
	out.datapoints++
	if closing {
		h.closed.Add(1)
	}
	if st.gen.pos == len(run.dps) {
		st.closers.add(closer{due, h.deployed.Load()})
		if st.client != nil {
			err = st.client.SendFail(run.failTime)
		} else {
			err = st.sess.EndRun()
		}
		h.fail(err)
		h.closed.Add(1)
		st.gen.nextRun(len(h.in.replay))
	}
}

// replace closes the session in a seeded slot of generator g and
// starts a fresh one there (fleet-churn). Hot sessions stay.
func (h *harness) replace(g int, out *genOut, retired *[]*stream) {
	v := &h.victims[g]
	v.nextRun(len(h.streams[g]) - hotSessions/generators)
	slot := hotSessions/generators + v.run
	old := h.streams[g][slot]
	t0 := time.Now()
	h.fail(old.sess.Close())
	t1 := time.Now()
	st := h.newStreamLocked(g)
	st.traced = old.traced
	err := h.startSession(st)
	t2 := time.Now()
	h.fail(err)
	out.closeUs = append(out.closeUs, float64(t1.Sub(t0))/1e3)
	out.startUs = append(out.startUs, float64(t2.Sub(t1))/1e3)
	if err != nil {
		return
	}
	h.streams[g][slot] = st
	*retired = append(*retired, old)
}

// newStreamLocked allocates a replacement stream; the two generators
// share the id counter.
func (h *harness) newStreamLocked(g int) *stream {
	h.idMu.Lock()
	defer h.idMu.Unlock()
	return h.newStream(fmt.Sprintf("fmc-%d-r%06d", g, h.nextID))
}

// generate is one generator goroutine's phase.
func (h *harness) generate(g int, spec phaseSpec, out *genOut, retired *[]*stream) {
	round := h.rounds[g]
	streams := h.streams[g]
	var pace *pacer
	var total int64
	if spec.rate > 0 {
		pace = newPacer(spec.rate/generators, h.start)
		total = int64(spec.rate * spec.duration.Seconds() / generators)
	}
	churn := h.kind == kindChurn
	var i, counted int64
	for {
		for _, slot := range round {
			due := int64(-1)
			if pace != nil {
				if i == total {
					out.late = pace.late
					return
				}
				due = pace.wait(i)
			} else if i&255 == 0 {
				elapsed := time.Since(h.start)
				for int(elapsed/time.Second) >= len(out.perSlice) {
					out.perSlice = append(out.perSlice, 0)
				}
				out.perSlice[len(out.perSlice)-1] += i - counted
				counted = i
				if elapsed >= spec.duration {
					return
				}
			}
			h.step(streams[slot], due, out)
			i++
			if churn {
				if i%(churnEvery/generators) == 0 {
					h.replace(g, out, retired)
				}
				if g == 0 && i%(deployEvery/generators) == 0 {
					h.nextDep++
					t0 := time.Now()
					h.fail(h.deploy())
					out.deployUs = append(out.deployUs, float64(time.Since(t0))/1e3)
				}
			}
			if pace == nil {
				for h.closed.Load()-h.delivered.Load() > maxInFlight {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}
	}
}

// runPhase runs one phase on every generator, waits for the last
// estimate, and checks every estimate against the reference.
func (h *harness) runPhase(spec phaseSpec) *phaseOut {
	out := &phaseOut{spec: spec}
	h.resetStreams(spec)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out.first = h.svc.Stats()
	base := h.delivered.Load() - h.closed.Load() // estimates from before the phase
	handled0 := h.handled.Load()
	errs0 := h.callErrs.Load()

	var retired [generators][]*stream
	cpu0 := cpuTime()
	h.start = time.Now()
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				st := h.svc.Stats()
				out.depth = append(out.depth, st.QueueDepth)
				out.batch = append(out.batch, st.LastBatchSize)
				out.cpuAt = append(out.cpuAt, cpuSample{h.clock(), cpuTime()})
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		out.gens[g].spans = newSpanBuf(0)
		if spec.traced {
			out.gens[g].spans = newSpanBuf(spanBudget)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h.generate(g, spec, &out.gens[g], &retired[g])
		}(g)
	}
	wg.Wait()
	for g := range out.gens {
		out.datapoints += out.gens[g].datapoints
		out.late = append(out.late, out.gens[g].late...)
	}
	// The phase ends when the last window it completed has its
	// estimate, not when the last datapoint was released.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h.delivered.Load()-h.closed.Load() == base &&
			(h.kind != kindWire || h.handled.Load()-handled0 == out.datapoints) {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	out.elapsed = time.Since(h.start)
	out.cpu = cpuTime() - cpu0
	close(stopSampler)
	<-samplerDone
	// Net of the benchmark's own off-heap records.
	out.rss = retainedRSS() - float64(closerArena.touchedBytes()+estArena.touchedBytes())/(1<<20)
	out.last = h.svc.Stats()
	runtime.ReadMemStats(&ms1)
	out.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	for g := range retired {
		h.retired = append(h.retired, retired[g]...)
	}
	if h.kind == kindWire {
		out.dropped = out.datapoints - (h.handled.Load() - handled0)
		if out.dropped != 0 {
			out.failf("%d datapoints sent and never handed to the stream handler", out.dropped)
			out.failed += out.dropped - 1
		}
	}
	out.attempted = out.datapoints
	if n := h.callErrs.Load() - errs0; n > 0 {
		out.failf("%d calls returned an error, first: %v", n, *h.firstErr.Load())
		out.failed += n - 1
	}
	h.check(out)
	if spec.traced {
		h.collectSpans(out)
	}
	return out
}

// resetStreams empties the per-phase records and marks the streams the
// traced phase samples: whole streams, every nth, so that the spans fit
// the budget.
func (h *harness) resetStreams(spec phaseSpec) {
	h.retired = h.retired[:0]
	closerArena.reset()
	estArena.reset()
	every := 1
	if spec.traced {
		perDp := 1.0
		if h.kind == kindWire {
			perDp = 2 // send and handle
		}
		expected := spec.rate * spec.duration.Seconds() * perDp
		every = int(expected/(spanBudget*0.8)) + 1
	}
	for g := range h.streams {
		for _, st := range h.streams[g] {
			st.closers.reset()
			st.est.reset()
			st.sent, st.handled, st.handledWin = 0, 0, 0
			st.traced = spec.traced && int(st.idx)%every == 0
			st.handleSpans = newSpanBuf(0)
			if st.traced && h.kind == kindWire {
				st.handleSpans = newSpanBuf(spanBudget)
			}
		}
	}
}

// allStreams is every stream the phase fed: the active ones and those
// churn closed.
func (h *harness) allStreams() []*stream {
	all := append([]*stream(nil), h.retired...)
	for g := range h.streams {
		all = append(all, h.streams[g]...)
	}
	return all
}

// spanBudget is the most spans a traced phase means to store: streams
// are sampled so that about 0.8 of it is expected. Each buffer could
// hold all of it (untouched off-heap pages cost nothing), because on
// the wire one of the two connections carries every sampled span.
const spanBudget = 1_000_000

// check compares, after the clock has stopped, every estimate with the
// reference and every stream's estimates with the windows it completed.
func (h *harness) check(out *phaseOut) {
	runs := h.in.replay
	for _, st := range h.allStreams() {
		nc, ne := st.closers.len(), st.est.len()
		out.windows += int64(nc)
		out.attempted += int64(nc)
		if lost := st.closers.lost + st.est.lost; lost > 0 {
			out.failf("stream %s: %d records lost, the recorder's arena is too small", st.id, lost)
		}
		if ne != nc {
			// Nothing is shed here (no ShedPolicy), so every completed
			// window owes an estimate.
			d := nc - ne
			if d < 0 {
				d = -d
			}
			out.failf("stream %s: %d windows completed, %d estimates", st.id, nc, ne)
			out.failed += int64(d) - 1
		}
		var lastVer uint64
		var lastAt int64
		for k := 0; k < ne && k < nc; k++ {
			e, c := st.est.at(k), st.closers.at(k)
			for st.chk.pos == runs[st.chk.run].windows {
				st.chk.nextRun(len(runs))
			}
			run, w := st.chk.run, st.chk.pos
			st.chk.pos++
			switch {
			case e.ver >= uint64(len(h.verDep)):
				out.failf("stream %s window %d: unknown model version %d", st.id, k, e.ver)
			case !agrees(e.rttf, h.ref.rttf[h.verDep[e.ver]][run][w]):
				out.failf("stream %s window %d: RTTF %v, reference %v", st.id, k, e.rttf, h.ref.rttf[h.verDep[e.ver]][run][w])
			case !agrees(e.tgen, runs[run].tgen[w]):
				out.failf("stream %s window %d: Tgen %v, reference %v", st.id, k, e.tgen, runs[run].tgen[w])
			case e.ver < c.floor:
				out.failf("stream %s window %d: served by version %d after Deploy of %d returned", st.id, k, e.ver, c.floor)
			case e.ver < lastVer || e.at < lastAt:
				out.failf("stream %s window %d: delivered out of order", st.id, k)
			}
			lastVer, lastAt = e.ver, e.at
			if c.due >= 0 {
				out.latency = append(out.latency, sample{at: c.due, dur: e.at - c.due})
			}
		}
		// A stream closed mid-run leaves its checker mid-run too; it is
		// never replayed again.
	}
}

// collectSpans gathers the traced phase's spans and adds the window
// spans, which are known only now: due time to estimate callback.
func (h *harness) collectSpans(out *phaseOut) {
	for g := range out.gens {
		out.spans = append(out.spans, out.gens[g].spans.spans...)
	}
	for _, st := range h.allStreams() {
		if !st.traced {
			continue
		}
		out.spans = append(out.spans, st.handleSpans.spans...)
		for k := 0; k < st.est.len() && k < st.closers.len(); k++ {
			out.spans = append(out.spans, span{kind: spanWindow, stream: st.idx, seq: int32(k), win: int32(k),
				start: st.closers.at(k).due, end: st.est.at(k).at})
		}
	}
}
