package f2pm

import (
	"sync"
	"time"

	"repro/internal/autonomic"
)

// Autonomic layer (ROADMAP item 5): a closed MAPE loop that watches
// serving-side signals, decides through pluggable policies, and acts
// through typed actuators — retrain, slide, publish, redeploy,
// reshard — with every decision logged in sequence. The supervisor
// owns no goroutines and no clock; the caller ticks it, which is what
// makes its decision stream deterministic and replayable. See the
// package documentation's "Autonomic operation" section and
// docs/autonomic.md.
type (
	// Supervisor is the closed loop: signals in, decisions out.
	Supervisor = autonomic.Supervisor
	// SupervisorConfig shapes a Supervisor: policies, actuators,
	// per-action cooldowns, the deferred-publish fallback, and the
	// decision hook.
	SupervisorConfig = autonomic.Config
	// SupervisorActuators are the execute arms of the loop.
	SupervisorActuators = autonomic.Actuators
	// SupervisorPolicy is one analyze/plan unit: it reads a tick's
	// signals and proposes actions.
	SupervisorPolicy = autonomic.Policy
	// SupervisorDecision is one entry of the structured decision log.
	SupervisorDecision = autonomic.Decision
	// SupervisorSignal is one observation on the supervisor's bus.
	SupervisorSignal = autonomic.Signal
	// SupervisorSignalKind tags a SupervisorSignal.
	SupervisorSignalKind = autonomic.SignalKind
	// SupervisorAction is a typed action with its parameters.
	SupervisorAction = autonomic.Action
	// SupervisorActionKind names an action family.
	SupervisorActionKind = autonomic.ActionKind

	// DriftPolicy fires a retrain (optionally slide-first,
	// publish-after) when an incremental update reports feature drift
	// past a threshold.
	DriftPolicy = autonomic.DriftPolicy
	// PredictionErrorPolicy fires a retrain when the EWMA of graded
	// prediction errors crosses its trigger, with hysteresis so the
	// loop does not thrash.
	PredictionErrorPolicy = autonomic.PredictionErrorPolicy
	// OverloadPolicy tightens and relaxes the serving shed policy on
	// sustained queue-depth watermarks.
	OverloadPolicy = autonomic.OverloadPolicy
)

// Signal kinds a supervisor understands (see autonomic.SignalKind).
const (
	SignalDrift           = autonomic.SignalDrift
	SignalPredictionError = autonomic.SignalPredictionError
	SignalQueueDepth      = autonomic.SignalQueueDepth
	SignalShed            = autonomic.SignalShed
	SignalStaleness       = autonomic.SignalStaleness
	SignalNewRuns         = autonomic.SignalNewRuns
)

// Action kinds a supervisor can take (see autonomic.ActionKind).
const (
	ActionRetrain  = autonomic.ActionRetrain
	ActionSlide    = autonomic.ActionSlide
	ActionPublish  = autonomic.ActionPublish
	ActionRedeploy = autonomic.ActionRedeploy
	ActionReshard  = autonomic.ActionReshard
)

// NewSupervisor validates the configuration and returns a supervisor.
// Feed it with Supervisor.Signal and drive it with Supervisor.Tick on
// whatever clock the caller owns — a wall ticker in a daemon, the
// virtual clock in a simulation.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) { return autonomic.New(cfg) }

// SuperviseService wires the standard serving-side feed for a
// supervisor: a goroutine samples the service's stats every interval,
// publishes queue-depth, shed-delta, and registry-staleness signals,
// and ticks the supervisor. It returns a stop function, safe to call
// more than once and from several goroutines; the loop also stops when
// the service's context is cancelled via the done channel.
//
// This is the daemon-shaped convenience over the deterministic core:
// tests and simulations should instead call Signal/Tick directly on a
// virtual clock.
func SuperviseService(sup *Supervisor, svc *PredictionService, every time.Duration, done <-chan struct{}) (stop func()) {
	quit := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		var lastShed uint64
		for {
			select {
			case <-quit:
				return
			case <-done:
				return
			case now := <-t.C:
				st := svc.Stats()
				sup.Signal(SupervisorSignal{Kind: SignalQueueDepth, At: now, Value: float64(st.QueueDepth)})
				if d := st.ShedWindows - lastShed; d > 0 {
					sup.Signal(SupervisorSignal{Kind: SignalShed, At: now, Value: float64(d)})
				}
				lastShed = st.ShedWindows
				if st.RegistryStale {
					sup.Signal(SupervisorSignal{Kind: SignalStaleness, At: now,
						Value: st.RegistryStaleAge.Seconds(), Detail: st.RegistryLastError})
				} else {
					sup.Signal(SupervisorSignal{Kind: SignalStaleness, At: now, Value: 0})
				}
				sup.Tick(now)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit) }) }
}
