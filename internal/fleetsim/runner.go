package fleetsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/autonomic"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/trace"
)

// runner executes one scenario. Everything happens on the calling
// goroutine in virtual time: the prediction service runs in manual
// dispatch under the runner's clock, clients are stepped in a fixed
// order, and every random draw comes from streams forked off the
// scenario seed — so the same scenario and seed replay to an identical
// event log, assertion outcomes, and report.
type runner struct {
	sc      *Scenario
	tickSec float64

	chaosRng *randx.Source
	fleet    []*client
	byID     map[string]*client
	sessions map[string]*serve.Session
	tr       *trainer
	svc      *serve.Service

	now  time.Time // virtual clock
	tick int

	// Chaos conditions in force.
	slowUntil  int
	stormUntil int
	stormFlip  bool
	prevDep    *serve.Deployment
	curDep     *serve.Deployment
	deploys    int

	// Simulated remote registry (Serve.Registry mode): retrains
	// publish to regDep, the service converges by polling through
	// regSrc on the virtual clock, and registry_outage makes the
	// origin fail so the stale-while-revalidate path runs under
	// deterministic replay.
	regSrc         *serve.FailoverSource
	regDep         *serve.Deployment
	regOutageUntil int
	publishes      int
	regStale       bool
	lastVersion    uint64

	// Autonomic supervisor (Scenario.Supervisor mode): ticked on the
	// virtual clock, fed the run's serving-side signals, executing
	// through actuators that drive the same pipeline, service, and
	// simulated registry — with every decision joining the event log.
	sup *autonomic.Supervisor
	// pendingDep is the most recent supervisor-retrained deployment,
	// awaiting its publish or redeploy action.
	pendingDep *serve.Deployment
	// shedFloor is the live shed-policy priority floor the
	// shed-below-floor invariant checks against; the Reshard actuator
	// moves it together with the policy (single runner goroutine, so a
	// plain field suffices).
	shedFloor    int
	lastShedSeen uint64
	lastRunsSeen int

	// Counters.
	crashes       int
	flaps         int
	completedRuns int
	maxQueueDepth int
	batches       int
	maxBatch      int
	latencySum    int
	latencyCount  int
	latencyMax    int
	latencyHist   map[int]int // latency in ticks → window count
	shedFloorBad  []string    // shed events at/above the policy floor

	log    []LogEntry
	checks []CheckResult
	errs   []string
}

// Run executes the scenario and returns its report. The error return
// covers only harness failures (bad scenario, bootstrap training
// failure); assertion failures are reported in Report.Passed and
// Report.Assertions.
func Run(sc *Scenario) (*Report, error) {
	wall := time.Now()
	r := &runner{
		sc:          sc,
		tickSec:     sc.Tick.Seconds(),
		byID:        map[string]*client{},
		sessions:    map[string]*serve.Session{},
		latencyHist: map[int]int{},
		// The virtual epoch is arbitrary but fixed: nothing in a run may
		// read the wall clock.
		now: time.Unix(1_000_000, 0),
	}
	root := randx.New(sc.Seed)
	r.chaosRng = root.Fork(2)

	tr, dep, err := newTrainer(sc, root.Fork(1))
	if err != nil {
		return nil, err
	}
	r.tr = tr
	r.curDep = dep

	fleet, err := newFleet(sc, root.Fork(3))
	if err != nil {
		return nil, err
	}
	r.fleet = fleet
	for _, c := range fleet {
		r.byID[c.id] = c
	}

	if err := r.startService(dep); err != nil {
		return nil, err
	}
	if sc.Supervisor != nil {
		if err := r.startSupervisor(); err != nil {
			return nil, err
		}
	}
	if sc.Serve.Registry != nil {
		r.logf("boot", "trained %d runs, published %q to registry", sc.Train.Runs, dep.Name)
	} else {
		r.logf("boot", "trained %d runs, deployed %q", sc.Train.Runs, dep.Name)
	}

	ticks := int(sc.Duration / sc.Tick)
	events := sc.Events
	nextEvent := 0
	for r.tick = 0; r.tick < ticks; r.tick++ {
		t := r.tick
		r.now = time.Unix(1_000_000, 0).Add(time.Duration(t) * sc.Tick)

		for nextEvent < len(events) && r.atTick(events[nextEvent].At) <= t {
			r.fire(&events[nextEvent])
			nextEvent++
		}
		r.restoreClients(t)
		r.startArrivals(t)
		r.stepClients(t)
		if r.stormUntil > t {
			r.stormTick()
		}
		if rc := sc.Serve.Registry; rc != nil && t%rc.PollEvery == 0 {
			r.pollRegistry()
		}
		if t >= r.slowUntil && t%sc.Serve.FlushEvery == 0 {
			r.svc.Flush()
		}
		if sc.Serve.SessionTTL > 0 && sc.Serve.SweepEvery > 0 && t%sc.Serve.SweepEvery == 0 {
			r.svc.SweepIdleNow()
		}
		if r.sup != nil && t%sc.Supervisor.TickEvery == 0 {
			r.superTick()
		}
		if d := r.svc.Stats().QueueDepth; d > r.maxQueueDepth {
			r.maxQueueDepth = d
		}
	}

	// Final drain: flush, then close (Close predicts whatever is still
	// queued), so the accounting below sees every delivered window.
	r.tick = ticks
	r.svc.Flush()
	if err := r.svc.Close(); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("service close: %v", err))
	}
	stats := r.svc.Stats()
	r.logf("end", "scenario complete: %d runs, %d crashes, %d flaps", r.completedRuns, r.crashes, r.flaps)

	// Assert events scheduled at (or clamped past) the end run against
	// the drained final state; other chaos there would be a no-op.
	for ; nextEvent < len(events); nextEvent++ {
		if events[nextEvent].Action == "assert" {
			r.fire(&events[nextEvent])
		}
	}
	for _, c := range sc.Final {
		r.checks = append(r.checks, r.evalCheck(c, "final"))
	}
	rep := r.report(stats, ticks)
	rep.WallDuration = time.Since(wall).Round(time.Millisecond).String()
	return rep, nil
}

func (r *runner) atTick(d time.Duration) int { return int(d / r.sc.Tick) }

func (r *runner) logf(kind, format string, args ...any) {
	r.log = append(r.log, LogEntry{Tick: r.tick, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// startService builds the serve.Service under test: manual dispatch,
// the runner's virtual clock, and the fault-injection hooks wired to
// the runner's accounting.
func (r *runner) startService(dep *serve.Deployment) error {
	sc := r.sc
	opts := []serve.Option{
		serve.WithDeployment(dep),
		serve.WithManualDispatch(),
		serve.WithClock(func() time.Time { return r.now }),
		serve.WithShards(sc.Serve.Shards),
		serve.WithEstimateFunc(r.onEstimate),
		serve.WithBatchFailpoint(func(shard, size int) {
			r.batches++
			if size > r.maxBatch {
				r.maxBatch = size
			}
		}),
	}
	if sc.Serve.SessionTTL > 0 {
		opts = append(opts, serve.WithSessionTTL(sc.Serve.SessionTTL))
	}
	if sc.Serve.Shed != nil {
		// The floor lives on the runner, not in the closure: the
		// supervisor's Reshard actuator moves the policy and the
		// invariant together.
		r.shedFloor = sc.Serve.Shed.MinPriority
		opts = append(opts,
			serve.WithShedPolicy(serve.ShedPolicy{
				MaxQueueDepth: sc.Serve.Shed.MaxQueueDepth,
				MinPriority:   r.shedFloor,
			}),
			serve.WithShedFunc(func(s serve.Shed) {
				if s.Priority >= r.shedFloor {
					r.shedFloorBad = append(r.shedFloorBad,
						fmt.Sprintf("session %s priority %d shed at/above floor %d", s.SessionID, s.Priority, r.shedFloor))
				}
			}),
		)
	}
	if sc.Serve.AlertThreshold > 0 {
		opts = append(opts, serve.WithAlertFunc(sc.Serve.AlertThreshold, func(serve.Alert) {}))
	}
	if rc := sc.Serve.Registry; rc != nil {
		// The simulated registry is a pointer the trainer swaps on
		// publish; registry_outage makes the origin fail. The real
		// FailoverSource runs on the virtual clock with no jitter, so
		// breaker cooldowns replay deterministically.
		r.regDep = dep
		origin := serve.ModelSourceFunc(func(context.Context) (*serve.Deployment, error) {
			if r.tick < r.regOutageUntil {
				return nil, fmt.Errorf("registry outage until tick %d", r.regOutageUntil)
			}
			return r.regDep, nil
		})
		r.regSrc = serve.NewFailoverSource(origin, serve.FailoverConfig{
			BreakerThreshold: rc.BreakerFailures,
			Backoff: monitor.Backoff{
				Base:   rc.CooldownBase,
				Max:    rc.CooldownMax,
				Jitter: -1, // deterministic: no jitter
			},
			Clock: func() time.Time { return r.now },
		})
		opts = append(opts, serve.WithModelSource(r.regSrc))
	}
	svc, err := serve.New(context.Background(), opts...)
	if err != nil {
		return err
	}
	r.svc = svc
	r.lastVersion = svc.Stats().ModelVersion
	return nil
}

// pollRegistry is one refresh tick in registry mode: pull through the
// failover source, log version convergence and staleness transitions —
// all in virtual time, so outage → stale → recovery → reconvergence is
// part of the deterministic fingerprint.
func (r *runner) pollRegistry() {
	ver, err := r.svc.Refresh(context.Background())
	if err != nil {
		// Only a true cold start reaches here (no last-good model);
		// under scenario chaos the source serves stale instead.
		r.errs = append(r.errs, fmt.Sprintf("registry poll: %v", err))
		return
	}
	if ver != r.lastVersion {
		r.deploys++
		r.lastVersion = ver
		r.logf("refresh", "poll converged to %q v%d", r.curDep.Name, ver)
	}
	st := r.regSrc.SourceStatus()
	if st.Stale != r.regStale {
		r.regStale = st.Stale
		if st.Stale {
			r.logf("stale", "registry unreachable, serving last-good model (failures %d)", st.Failures)
		} else {
			r.logf("fresh", "registry recovered, model source fresh again")
		}
	}
}

// startSupervisor builds the autonomic supervisor from the scenario's
// policy configuration, with actuators closing the loop onto the
// runner's pipeline, service, and simulated registry. Decisions are
// logged as they are made, so the MAPE loop's behavior is part of the
// deterministic fingerprint.
func (r *runner) startSupervisor() error {
	sp := r.sc.Supervisor
	var pols []autonomic.Policy
	if sp.ErrorTrigger > 0 {
		pols = append(pols, &autonomic.PredictionErrorPolicy{
			Trigger:      sp.ErrorTrigger,
			Clear:        sp.ErrorClear,
			MinSamples:   sp.ErrorMinSamples,
			PublishAfter: sp.PublishAfter,
		})
	}
	if sp.DriftThreshold > 0 {
		pols = append(pols, &autonomic.DriftPolicy{
			Threshold:    sp.DriftThreshold,
			SlideTo:      sp.SlideTo,
			PublishAfter: sp.PublishAfter,
		})
	}
	if sp.OverloadHigh > 0 {
		pols = append(pols, &autonomic.OverloadPolicy{
			HighDepth:  sp.OverloadHigh,
			LowDepth:   sp.OverloadLow,
			Rise:       sp.OverloadRise,
			Sustain:    sp.OverloadSustain,
			TightDepth: sp.TightDepth,
			TightFloor: sp.TightFloor,
			RelaxDepth: sp.RelaxDepth,
			RelaxFloor: sp.RelaxFloor,
		})
	}
	sup, err := autonomic.New(autonomic.Config{
		Policies: pols,
		Actuators: autonomic.Actuators{
			Retrain:  r.actRetrain,
			Slide:    r.actSlide,
			Publish:  r.actPublish,
			Redeploy: r.actRedeploy,
			Reshard:  r.actReshard,
		},
		DefaultCooldown: sp.Cooldown,
		RedeployAfter:   sp.RedeployAfter,
		OnDecision: func(d autonomic.Decision) {
			r.logf("decision", "%s", d.String())
		},
	})
	if err != nil {
		return err
	}
	r.sup = sup
	return nil
}

// superTick is one MAPE cycle: observe the serving stack into the
// signal bus, then let the supervisor analyze, plan, and execute.
// Prediction-error and drift signals are published at their sources
// (fail, actRetrain); this adds the per-cycle gauges.
func (r *runner) superTick() {
	st := r.svc.Stats()
	r.sup.Signal(autonomic.Signal{Kind: autonomic.SignalQueueDepth, At: r.now, Value: float64(st.QueueDepth)})
	if st.ShedWindows > r.lastShedSeen {
		r.sup.Signal(autonomic.Signal{Kind: autonomic.SignalShed, At: r.now, Value: float64(st.ShedWindows - r.lastShedSeen)})
		r.lastShedSeen = st.ShedWindows
	}
	if r.regSrc != nil {
		var age float64
		if st.RegistryStale {
			age = st.RegistryStaleAge.Seconds()
			if age <= 0 {
				age = r.tickSec
			}
		}
		r.sup.Signal(autonomic.Signal{Kind: autonomic.SignalStaleness, At: r.now, Value: age})
	}
	if r.completedRuns > r.lastRunsSeen {
		r.sup.Signal(autonomic.Signal{Kind: autonomic.SignalNewRuns, At: r.now, Value: float64(r.completedRuns - r.lastRunsSeen)})
		r.lastRunsSeen = r.completedRuns
	}
	r.sup.Tick(r.now)
}

// actRetrain is the supervisor's Retrain arm: one incremental
// Pipeline.Update on the accumulated history, with the result parked
// for the publish/redeploy that follows. Drift the update reported
// feeds back as a signal — the Analyze input of the next cycle.
func (r *runner) actRetrain(reason string) error {
	rep, err := r.tr.retrainNow()
	if err != nil {
		return err
	}
	dep, err := serve.FromReport(rep)
	if err != nil {
		return fmt.Errorf("no deployable model: %w", err)
	}
	r.pendingDep = dep
	redraw := ""
	if rep.SplitRedrawn {
		redraw = " (split redrawn)"
	}
	r.logf("retrain", "autonomous retrain %d trained %q, window start %d%s",
		r.tr.retrains, dep.Name, rep.WindowStart, redraw)
	if r.sc.Train.VerifyUpdate || (rep.SplitRedrawn && r.sc.Train.VerifyRedraw) {
		r.logf("parity", "update parity: %d checks, %d failures", r.tr.parityChecks, len(r.tr.parityFails))
	}
	worst := 0.0
	for i := range rep.Results {
		if d := rep.Results[i].Update.DriftScore; d > worst {
			worst = d
		}
	}
	if worst > 0 {
		r.sup.Signal(autonomic.Signal{Kind: autonomic.SignalDrift, At: r.now, Value: worst, Detail: "retrain update"})
	}
	return nil
}

// actSlide tightens the pipeline's retention window; the next update
// evicts past the new bound.
func (r *runner) actSlide(maxRuns int, reason string) error {
	if err := r.tr.pipe.SetWindow(core.WindowPolicy{MaxRuns: maxRuns}); err != nil {
		return err
	}
	r.logf("slide", "training window tightened to max_runs=%d", maxRuns)
	return nil
}

// actPublish pushes the parked retrained deployment to the simulated
// registry (the fleet converges at its next poll), or deploys directly
// when the scenario runs without a registry.
func (r *runner) actPublish(reason string) error {
	if r.pendingDep == nil {
		return fmt.Errorf("no retrained deployment to publish")
	}
	dep := r.pendingDep
	if r.sc.Serve.Registry != nil {
		r.regDep = dep
		r.publishes++
		r.prevDep, r.curDep = r.curDep, dep
		r.logf("publish", "supervisor published %q (publish %d)", dep.Name, r.publishes)
		return nil
	}
	ver, err := r.svc.Deploy(dep)
	if err != nil {
		return err
	}
	r.deploys++
	r.prevDep, r.curDep = r.curDep, dep
	r.logf("deploy", "supervisor deployed %q as v%d", dep.Name, ver)
	return nil
}

// actRedeploy hot-swaps the parked deployment into the local service —
// the fallback when a publish has waited out RedeployAfter with the
// registry still stale.
func (r *runner) actRedeploy(reason string) error {
	dep := r.pendingDep
	if dep == nil {
		return fmt.Errorf("no retrained deployment to redeploy")
	}
	ver, err := r.svc.Deploy(dep)
	if err != nil {
		return err
	}
	r.deploys++
	r.logf("redeploy", "supervisor deployed %q locally as v%d (registry stale)", dep.Name, ver)
	return nil
}

// actReshard swaps the live shed policy, moving the below-floor
// invariant's floor with it.
func (r *runner) actReshard(depth, floor int, reason string) error {
	if err := r.svc.SetShedPolicy(serve.ShedPolicy{MaxQueueDepth: depth, MinPriority: floor}); err != nil {
		return err
	}
	r.shedFloor = floor
	r.logf("reshard", "shed policy now depth=%d floor=%d", depth, floor)
	return nil
}

// onEstimate runs inside Flush/Close on the runner goroutine: it
// credits the window to its session and records queue latency in
// virtual ticks.
func (r *runner) onEstimate(est serve.Estimate) {
	c, ok := r.byID[est.SessionID]
	if !ok {
		return
	}
	c.delivered++
	c.lastEst, c.hasEst = est, true
	if len(c.pendingTicks) > 0 {
		lat := r.tick - c.pendingTicks[0]
		c.pendingTicks = c.pendingTicks[1:]
		r.latencySum += lat
		r.latencyCount++
		r.latencyHist[lat]++
		if lat > r.latencyMax {
			r.latencyMax = lat
		}
		if lat > c.latencyMax {
			c.latencyMax = lat
		}
		c.latencySum += lat
	}
}

// startArrivals brings newly arrived clients online.
func (r *runner) startArrivals(t int) {
	for _, c := range r.fleet {
		if c.active || c.startTick > t {
			continue
		}
		c.active = true
		c.resetRun(t)
		if err := r.register(c); err != nil {
			r.errs = append(r.errs, fmt.Sprintf("start session %s: %v", c.id, err))
			continue
		}
		r.logf("start", "client %s (prio %d) arrived", c.id, c.tmpl.Priority)
	}
}

// register (re-)creates the serving session of a client — at arrival,
// and again after an idle-TTL eviction.
func (r *runner) register(c *client) error {
	ss, err := r.svc.StartSession(c.id, serve.WithSessionPriority(c.tmpl.Priority))
	if err != nil {
		return err
	}
	r.sessions[c.id] = ss
	return nil
}

// restoreClients brings crash/flap victims back at their restore tick.
func (r *runner) restoreClients(t int) {
	for _, c := range r.fleet {
		if !c.active || (!c.crashed && !c.flapped) || c.downTick > t {
			continue
		}
		if c.crashed {
			c.crashed = false
			c.resetRun(t)
			r.logf("restore", "client %s back after crash (run restarted)", c.id)
		} else {
			c.flapped = false
			r.logf("restore", "client %s connection recovered", c.id)
		}
	}
}

// stepClients advances every live client one tick: sample, push,
// fail-handling, restart bookkeeping — in fleet order, so the schedule
// is deterministic.
func (r *runner) stepClients(t int) {
	for _, c := range r.fleet {
		if !c.active || c.crashed || t < c.restartAt {
			continue
		}
		if c.restartAt == t && len(c.pendingRun) == 0 && c.runs > 0 && c.runStart < t {
			// Back from a post-failure restart delay.
			c.resetRun(t)
			r.logf("restart", "client %s began run %d", c.id, c.runs+1)
		}
		if c.burstUntil > 0 && t >= c.burstUntil {
			c.burst = 1
			c.burstUntil = 0
		}
		d, failed := c.step(t, r.tickSec)
		if c.flapped {
			continue // connection down: the sample is lost, no fail handling
		}
		c.pushed++
		c.pendingRun = append(c.pendingRun, d)
		r.push(c, d, false)
		if failed {
			r.fail(c, d.Tgen, t)
		}
	}
}

// push hands one datapoint (or, with endRun, the run-closing flush) to
// the client's session, mirroring the aggregation for exact accounting
// and classifying the outcome (accepted, shed, re-registered).
//
// The mirror must transition exactly like the session's aggregator, so
// it is advanced only after eviction handling: a re-registered session
// starts from an empty aggregator, and the mirror resets with it.
func (r *runner) push(c *client, d trace.Datapoint, endRun bool) {
	ss := r.sessions[c.id]
	var err error
	if endRun {
		err = ss.EndRun()
	} else {
		err = ss.Push(d)
	}
	if errors.Is(err, serve.ErrSessionClosed) {
		// Idle-TTL eviction while the client was dark: re-register, the
		// client resumes exactly like a real re-connecting monitor (the
		// window state accumulated before the outage is gone on both
		// sides).
		if rerr := r.register(c); rerr != nil {
			r.errs = append(r.errs, fmt.Sprintf("re-register %s: %v", c.id, rerr))
			return
		}
		r.logf("reregister", "client %s re-registered after eviction", c.id)
		c.mirror.Reset()
		ss = r.sessions[c.id]
		if endRun {
			err = ss.EndRun()
		} else {
			err = ss.Push(d)
		}
	}
	var emitted bool
	if endRun {
		_, _, emitted = c.mirror.Flush()
		c.mirror.Reset()
	} else {
		_, _, emitted = c.mirror.Push(d)
	}
	if emitted {
		c.attempted++
	}
	switch {
	case errors.Is(err, serve.ErrWindowShed):
		if !emitted {
			r.errs = append(r.errs, fmt.Sprintf("client %s: shed without a completed window", c.id))
		}
		c.shed++
	case err != nil:
		r.errs = append(r.errs, fmt.Sprintf("client %s push: %v", c.id, err))
	case emitted:
		c.pendingTicks = append(c.pendingTicks, r.tick)
	}
}

// fail handles a client crossing its failure condition: the run closes
// (EndRun — the final partial window is still predicted), the completed
// run feeds the trainer, and the retrain cadence may produce a new
// deployment.
func (r *runner) fail(c *client, tgen float64, t int) {
	// A real failure grades the last estimate this client received:
	// the remaining time to failure at prediction time is now known,
	// and the relative error is the supervisor's prediction-error
	// feedback signal.
	if r.sup != nil && c.hasEst {
		if actual := tgen - c.lastEst.Tgen; actual > 0 {
			relErr := math.Abs(c.lastEst.RTTF-actual) / math.Max(actual, 1)
			r.sup.Signal(autonomic.Signal{
				Kind: autonomic.SignalPredictionError, At: r.now,
				Value: relErr, Detail: c.id,
			})
		}
		c.hasEst = false
	}
	r.push(c, trace.Datapoint{}, true)
	run := trace.Run{
		Datapoints: append([]trace.Datapoint(nil), c.pendingRun...),
		Failed:     true,
		FailTime:   tgen,
	}
	c.runs++
	r.completedRuns++
	r.logf("fail", "client %s run %d failed at tgen %.1fs", c.id, c.runs, tgen)
	c.restartAt = t + 1 + r.atTick(c.tmpl.RestartDelay)
	c.pendingRun = c.pendingRun[:0]

	rep, err := r.tr.completedRun(run)
	if err != nil {
		r.logf("retrain_error", "%v", err)
		return
	}
	if rep == nil {
		return
	}
	dep, err := serve.FromReport(rep)
	if err != nil {
		r.logf("retrain_error", "no deployable model: %v", err)
		return
	}
	if r.sc.Serve.Registry != nil {
		// Registry mode: the trainer publishes; the service converges
		// at its next poll (the one-poll reconvergence the scenario
		// asserts), not here.
		r.regDep = dep
		r.publishes++
		r.prevDep, r.curDep = r.curDep, dep
		redraw := ""
		if rep.SplitRedrawn {
			redraw = " (split redrawn)"
		}
		r.logf("publish", "retrain %d published %q (publish %d), window start %d%s",
			r.tr.retrains, dep.Name, r.publishes, rep.WindowStart, redraw)
		if rep.SplitRedrawn && r.sc.Train.VerifyRedraw {
			r.logf("parity", "redraw parity: %d checks, %d failures", r.tr.parityChecks, len(r.tr.parityFails))
		}
		return
	}
	ver, err := r.svc.Deploy(dep)
	if err != nil {
		r.logf("retrain_error", "deploy: %v", err)
		return
	}
	r.deploys++
	r.prevDep, r.curDep = r.curDep, dep
	redraw := ""
	if rep.SplitRedrawn {
		redraw = " (split redrawn)"
	}
	r.logf("retrain", "retrain %d deployed %q as v%d, window start %d%s",
		r.tr.retrains, dep.Name, ver, rep.WindowStart, redraw)
	if rep.SplitRedrawn && r.sc.Train.VerifyRedraw {
		r.logf("parity", "redraw parity: %d checks, %d failures", r.tr.parityChecks, len(r.tr.parityFails))
	}
}

// fire applies one scenario event.
func (r *runner) fire(ev *ScenarioEvent) {
	t := r.tick
	switch ev.Action {
	case "crash_restart", "flap":
		victims := r.pickVictims(ev.Clients)
		down := r.atTick(ev.Down)
		if down < 1 {
			down = 1
		}
		for _, c := range victims {
			c.downTick = t + down
			if ev.Action == "crash_restart" {
				c.crashed = true
				c.everCrashed = true
				c.crashes++
				r.crashes++
				// The crash kills the monitored app mid-run: the
				// unfinished run is lost, exactly like a real FMC dying
				// without a fail event. The aggregator (session and
				// mirror alike) self-resets when the restarted run's
				// timestamps go backwards.
				c.pendingRun = c.pendingRun[:0]
				r.logf("chaos", "crash_restart client %s for %d ticks", c.id, down)
			} else {
				c.flapped = true
				c.flaps++
				r.flaps++
				r.logf("chaos", "flap client %s for %d ticks", c.id, down)
			}
		}
	case "slow_consumer":
		r.slowUntil = t + r.atTick(ev.For)
		r.logf("chaos", "slow_consumer: no flushes until tick %d", r.slowUntil)
	case "stale_model_storm":
		r.stormUntil = t + r.atTick(ev.For)
		r.logf("chaos", "stale_model_storm until tick %d", r.stormUntil)
	case "registry_outage":
		r.regOutageUntil = t + r.atTick(ev.For)
		r.logf("chaos", "registry_outage until tick %d", r.regOutageUntil)
	case "leak_burst":
		n := int(ev.Fraction*float64(len(r.fleet)) + 0.5)
		victims := r.pickVictims(n)
		until := t + r.atTick(ev.For)
		for _, c := range victims {
			c.burst = ev.Factor
			c.burstUntil = until
		}
		r.logf("chaos", "leak_burst x%g on %d clients until tick %d", ev.Factor, len(victims), until)
	case "assert":
		at := fmt.Sprintf("t=%s", ev.At)
		for _, c := range ev.Checks {
			res := r.evalCheck(c, at)
			r.checks = append(r.checks, res)
			r.logf("assert", "%s: passed=%v (%s)", c.Name, res.Passed, res.Detail)
		}
	}
}

// pickVictims draws n distinct live clients with the chaos stream.
func (r *runner) pickVictims(n int) []*client {
	var eligible []*client
	for _, c := range r.fleet {
		if c.active && !c.crashed && !c.flapped {
			eligible = append(eligible, c)
		}
	}
	if n > len(eligible) {
		n = len(eligible)
	}
	var out []*client
	for i := 0; i < n; i++ {
		k := r.chaosRng.Intn(len(eligible))
		out = append(out, eligible[k])
		eligible = append(eligible[:k], eligible[k+1:]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// stormTick flips the registry between the current and previous
// deployments — rapid version churn, the stale-model storm.
func (r *runner) stormTick() {
	dep := r.curDep
	if r.stormFlip && r.prevDep != nil {
		dep = r.prevDep
	}
	r.stormFlip = !r.stormFlip
	if _, err := r.svc.Deploy(dep); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("storm deploy: %v", err))
		return
	}
	r.deploys++
}

// evalCheck evaluates one assertion against the current run state.
func (r *runner) evalCheck(c Check, at string) CheckResult {
	res := CheckResult{At: at, Check: c.Name}
	stats := r.svc.Stats()
	bound := func(def float64) float64 {
		if c.Has {
			return c.Value
		}
		return def
	}
	ge := func(got, min float64, what string) {
		res.Passed = got >= min
		res.Detail = fmt.Sprintf("%s %g, want >= %g", what, got, min)
	}
	le := func(got, max float64, what string) {
		res.Passed = got <= max
		res.Detail = fmt.Sprintf("%s %g, want <= %g", what, got, max)
	}
	switch c.Name {
	case "min_predictions":
		ge(float64(stats.Predictions), bound(1), "predictions")
	case "min_alerts":
		ge(float64(stats.Alerts), bound(1), "alerts")
	case "max_queue_depth":
		le(float64(stats.QueueDepth), bound(0), "queue depth")
	case "min_sessions":
		ge(float64(stats.Sessions), bound(1), "sessions")
	case "min_completed_runs":
		ge(float64(r.completedRuns), bound(1), "completed runs")
	case "min_retrains":
		ge(float64(r.tr.retrains), bound(1), "retrains")
	case "min_model_version":
		ge(float64(stats.ModelVersion), bound(2), "model version")
	case "min_shed":
		ge(float64(stats.ShedWindows), bound(1), "shed windows")
	case "max_shed":
		le(float64(stats.ShedWindows), bound(0), "shed windows")
	case "require_redraw":
		ge(float64(r.tr.redraws), bound(1), "split redraws")
	case "require_parity":
		res.Passed = len(r.tr.parityFails) == 0 && r.tr.parityChecks >= int(bound(1))
		res.Detail = fmt.Sprintf("%d parity checks, %d failures", r.tr.parityChecks, len(r.tr.parityFails))
	case "no_lost_windows":
		lost, survivors := 0, 0
		for _, cl := range r.fleet {
			if cl.everCrashed {
				continue
			}
			survivors++
			if l := cl.attempted - cl.shed - cl.delivered; l > 0 {
				lost += l
			}
		}
		res.Passed = lost == 0
		res.Detail = fmt.Sprintf("%d windows lost across %d never-crashed sessions", lost, survivors)
	case "registry_stale":
		res.Passed = r.regSrc != nil && stats.RegistryStale
		if r.regSrc == nil {
			res.Detail = "no registry configured"
		} else {
			res.Detail = fmt.Sprintf("stale=%v last_error=%q", stats.RegistryStale, stats.RegistryLastError)
		}
	case "registry_fresh":
		res.Passed = r.regSrc != nil && !stats.RegistryStale
		if r.regSrc == nil {
			res.Detail = "no registry configured"
		} else {
			res.Detail = fmt.Sprintf("stale=%v last_error=%q", stats.RegistryStale, stats.RegistryLastError)
		}
	case "min_publishes":
		ge(float64(r.publishes), bound(1), "registry publishes")
	case "min_coalesced":
		ge(float64(stats.CoalescedBatches), bound(1), "coalesced batches")
	case "max_batches":
		le(float64(r.batches), bound(0), "prediction batches")
	case "max_p99_latency":
		le(float64(r.latencyPercentile(99)), bound(0), "p99 latency ticks")
	case "min_decisions":
		if r.sup == nil {
			res.Detail = "no supervisor configured"
			break
		}
		ge(float64(r.sup.Decisions()), bound(1), "supervisor decisions")
	case "min_reshards":
		if r.sup == nil {
			res.Detail = "no supervisor configured"
			break
		}
		ge(float64(r.sup.Executed(autonomic.ActionReshard)), bound(1), "reshard actions")
	case "min_slides":
		if r.sup == nil {
			res.Detail = "no supervisor configured"
			break
		}
		ge(float64(r.sup.Executed(autonomic.ActionSlide)), bound(1), "slide actions")
	case "no_errors":
		res.Passed = len(r.errs) == 0
		if res.Passed {
			res.Detail = "no internal errors"
		} else {
			res.Detail = fmt.Sprintf("%d internal errors, first: %s", len(r.errs), r.errs[0])
		}
	case "shed_only_below_floor":
		res.Passed = len(r.shedFloorBad) == 0
		if res.Passed {
			res.Detail = fmt.Sprintf("%d shed windows, all below the floor", stats.ShedWindows)
		} else {
			res.Detail = r.shedFloorBad[0]
		}
	default:
		res.Detail = fmt.Sprintf("unknown check %q", c.Name)
	}
	return res
}

// latencyPercentile computes the nearest-rank p-th percentile of the
// queue-latency distribution, in ticks (0 with no samples).
func (r *runner) latencyPercentile(p float64) int {
	if r.latencyCount == 0 {
		return 0
	}
	rank := int(p/100*float64(r.latencyCount) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	ticks := make([]int, 0, len(r.latencyHist))
	for t := range r.latencyHist {
		ticks = append(ticks, t)
	}
	sort.Ints(ticks)
	seen := 0
	for _, t := range ticks {
		seen += r.latencyHist[t]
		if seen >= rank {
			return t
		}
	}
	return ticks[len(ticks)-1]
}

// report assembles the final Report from the drained run state.
func (r *runner) report(stats serve.Stats, ticks int) *Report {
	rep := &Report{
		Scenario:        r.sc.Name,
		Seed:            r.sc.Seed,
		Ticks:           ticks,
		VirtualDuration: r.sc.Duration.String(),
		Clients:         len(r.fleet),
		CompletedRuns:   r.completedRuns,
		Crashes:         r.crashes,
		Flaps:           r.flaps,

		Retrains:          r.tr.retrains,
		Redraws:           r.tr.redraws,
		ParityChecks:      r.tr.parityChecks,
		ParityFailures:    r.tr.parityFails,
		Deploys:           r.deploys,
		FinalModelVersion: stats.ModelVersion,

		Predictions:      stats.Predictions,
		Alerts:           stats.Alerts,
		ShedWindows:      stats.ShedWindows,
		ShedByPriority:   stats.ShedByPriority,
		EvictedSessions:  stats.EvictedSessions,
		MaxQueueDepth:    r.maxQueueDepth,
		Batches:          r.batches,
		MaxBatchSize:     r.maxBatch,
		CoalescedBatches: stats.CoalescedBatches,
		CoalescedWindows: stats.CoalescedWindows,

		MaxLatencyTicks: r.latencyMax,
		Assertions:      r.checks,
		Errors:          append([]string(nil), r.errs...),
		Log:             r.log,

		Publishes:    r.publishes,
		FinallyStale: r.regStale,
	}
	if r.sup != nil {
		rep.Decisions = r.sup.Decisions()
		rep.ActionsExecuted = map[string]int{}
		for _, k := range []autonomic.ActionKind{
			autonomic.ActionRetrain, autonomic.ActionSlide, autonomic.ActionPublish,
			autonomic.ActionRedeploy, autonomic.ActionReshard,
		} {
			if n := r.sup.Executed(k); n > 0 {
				rep.ActionsExecuted[string(k)] = n
			}
		}
	}
	if r.latencyCount > 0 {
		rep.MeanLatencyTicks = float64(r.latencySum) / float64(r.latencyCount)
		rep.LatencyP50Ticks = r.latencyPercentile(50)
		rep.LatencyP90Ticks = r.latencyPercentile(90)
		rep.LatencyP99Ticks = r.latencyPercentile(99)
		ticks := make([]int, 0, len(r.latencyHist))
		for t := range r.latencyHist {
			ticks = append(ticks, t)
		}
		sort.Ints(ticks)
		for _, t := range ticks {
			rep.LatencyHistogram = append(rep.LatencyHistogram, LatencyBucket{Ticks: t, Count: r.latencyHist[t]})
		}
	}
	for _, c := range r.fleet {
		sr := SessionReport{
			ID:        c.id,
			Template:  c.tmpl.Name,
			Priority:  c.tmpl.Priority,
			Runs:      c.runs,
			Crashes:   c.crashes,
			Flaps:     c.flaps,
			Pushed:    c.pushed,
			Windows:   c.attempted,
			Shed:      c.shed,
			Delivered: c.delivered,
		}
		if !c.everCrashed {
			if l := c.attempted - c.shed - c.delivered; l > 0 {
				sr.Lost = l
				rep.LostWindows += l
			}
		}
		rep.Sessions = append(rep.Sessions, sr)
	}
	rep.Passed = len(r.errs) == 0
	for _, c := range r.checks {
		if !c.Passed {
			rep.Passed = false
		}
	}
	return rep
}

// RunData parses a scenario document and runs it — the one-call entry
// point used by cmd/fleetsim and the examples.
func RunData(data []byte) (*Report, error) {
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, err
	}
	return Run(sc)
}
