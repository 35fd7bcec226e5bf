// Package autonomic closes the MAPE loop (monitor → analyze → plan →
// execute) over the serving and training stack: serving-side signals
// (drift reports, prediction-error feedback, queue depth and shed
// rates, registry staleness) flow into a bounded bus, pluggable
// policies evaluate them on a clock the supervisor does not own, and
// verdicts become typed actions — retrain incrementally, slide the
// training window, publish to the registry, redeploy locally, reshard
// the load-shedding floor — executed through caller-supplied actuators.
//
// Every verdict, executed or not, is a Decision: the inputs that drove
// it, the policy that proposed it, the action, and the outcome. The
// supervisor never spawns goroutines, never reads the wall clock, and
// draws no randomness, so a run driven from a virtual clock replays
// byte-identically — the property the fleetsim chaos harness asserts.
package autonomic

import (
	"fmt"
	"sync"
	"time"
)

// SignalKind names one class of serving-side observation.
type SignalKind string

const (
	// SignalDrift carries a standardizer drift score reported by an
	// incremental model update (ml.UpdateInfo.DriftScore): how far the
	// newly appended rows sit from the statistics the model froze.
	SignalDrift SignalKind = "drift"
	// SignalPredictionError carries observed prediction-error feedback:
	// when a monitored application actually fails, the estimates it
	// received become gradeable, and Value is the relative error
	// |predicted − actual| / max(actual, 1).
	SignalPredictionError SignalKind = "prediction_error"
	// SignalQueueDepth carries the service's pending-window depth — the
	// backpressure signal behind overload policies.
	SignalQueueDepth SignalKind = "queue_depth"
	// SignalShed carries windows dropped by the shed policy since the
	// previous observation.
	SignalShed SignalKind = "shed"
	// SignalStaleness carries registry staleness: Value is the stale
	// age in seconds, 0 when the model source is fresh. The supervisor
	// itself consumes this to defer publishes while the registry is
	// unreachable.
	SignalStaleness SignalKind = "staleness"
	// SignalNewRuns counts newly completed (failed) runs available to
	// the training pipeline since the previous observation.
	SignalNewRuns SignalKind = "new_runs"
)

// Signal is one observation: what was seen, when, and its magnitude.
type Signal struct {
	Kind SignalKind
	// At is when the observation was made, on the caller's clock.
	At time.Time
	// Value is the observation's magnitude; its unit depends on Kind.
	Value float64
	// Detail is optional context for the decision log.
	Detail string
}

// DefaultBusCapacity bounds a zero-configured signal bus.
const DefaultBusCapacity = 256

// Bus is the bounded signal queue between the monitored system and the
// supervisor. Producers Publish from wherever observations originate;
// the supervisor drains the backlog once per Tick. When full, the
// oldest signal is dropped and counted — a stalled supervisor degrades
// to fresher data, it never grows without bound. Safe for concurrent
// use.
type Bus struct {
	mu      sync.Mutex
	cap     int
	sigs    []Signal
	dropped uint64
}

// NewBus returns a bus holding at most capacity signals
// (DefaultBusCapacity when capacity <= 0).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{cap: capacity}
}

// Publish enqueues one signal, dropping the oldest when full.
func (b *Bus) Publish(sig Signal) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sigs) >= b.cap {
		n := copy(b.sigs, b.sigs[1:])
		b.sigs = b.sigs[:n]
		b.dropped++
	}
	b.sigs = append(b.sigs, sig)
}

// Drain returns the queued signals in publish order and empties the
// bus.
func (b *Bus) Drain() []Signal {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.sigs
	b.sigs = nil
	return out
}

// Dropped reports how many signals were evicted by a full bus.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// ActionKind names one actuator the supervisor can drive.
type ActionKind string

const (
	// ActionRetrain runs an incremental pipeline update on the
	// accumulated runs (warm-started where models support it).
	ActionRetrain ActionKind = "retrain"
	// ActionSlide tightens the training pipeline's retention window.
	ActionSlide ActionKind = "slide"
	// ActionPublish pushes the latest trained deployment to the model
	// registry, where the fleet converges on it by polling.
	ActionPublish ActionKind = "publish"
	// ActionRedeploy hot-swaps the latest trained deployment into the
	// local service directly — the fallback when the registry is
	// unreachable for too long.
	ActionRedeploy ActionKind = "redeploy"
	// ActionReshard swaps the serving load-shedding policy (queue-depth
	// threshold and priority floor).
	ActionReshard ActionKind = "reshard"
)

// Action is one typed, parameterized command.
type Action struct {
	Kind ActionKind
	// MaxRuns is the retention bound a slide tightens to.
	MaxRuns int
	// MaxQueueDepth/MinPriority are the shed policy a reshard installs.
	MaxQueueDepth int
	MinPriority   int
}

// String renders the action in the stable compact form the decision
// log uses.
func (a Action) String() string {
	switch a.Kind {
	case ActionSlide:
		return fmt.Sprintf("slide(max_runs=%d)", a.MaxRuns)
	case ActionReshard:
		return fmt.Sprintf("reshard(depth=%d,floor=%d)", a.MaxQueueDepth, a.MinPriority)
	default:
		return string(a.Kind)
	}
}

// Actuators are the execute arms of the loop, supplied by whoever owns
// the pipeline, the service, and the registry. A nil actuator makes
// proposals of that kind resolve to OutcomeNoActuator — logged, not
// fatal — so a deployment can wire only the arms it wants automated.
// Each func receives the proposing policy's reason for the audit trail.
type Actuators struct {
	Retrain  func(reason string) error
	Slide    func(maxRuns int, reason string) error
	Publish  func(reason string) error
	Redeploy func(reason string) error
	Reshard  func(maxQueueDepth, minPriority int, reason string) error
}

// Outcome is what became of one proposal.
type Outcome string

const (
	// OutcomeExecuted: the actuator ran and returned nil.
	OutcomeExecuted Outcome = "executed"
	// OutcomeCooldown: suppressed — the action kind fired too recently.
	// Suppressed proposals still produce decisions; an operator reading
	// the log sees what the loop wanted, not only what it did.
	OutcomeCooldown Outcome = "cooldown"
	// OutcomeDeferred: a publish proposed while the registry is stale;
	// parked and retried when the registry is fresh again.
	OutcomeDeferred Outcome = "deferred"
	// OutcomeFailed: the actuator returned an error (in Decision.Err).
	OutcomeFailed Outcome = "failed"
	// OutcomeNoActuator: no actuator is wired for the action kind.
	OutcomeNoActuator Outcome = "no_actuator"
)

// Decision is one entry of the structured decision log: a proposal,
// where it came from, and what happened to it. The sequence number is
// per-supervisor and gap-free, so a replayed run produces an identical
// decision stream.
type Decision struct {
	Seq     int       `json:"seq"`
	At      time.Time `json:"at"`
	Policy  string    `json:"policy"`
	Action  Action    `json:"action"`
	Reason  string    `json:"reason"`
	Outcome Outcome   `json:"outcome"`
	Err     string    `json:"err,omitempty"`
}

// String renders the decision as one stable log line (no wall-clock
// content — the timestamp is the caller's virtual clock and is
// rendered as a Unix offset only by callers that want it).
func (d Decision) String() string {
	s := fmt.Sprintf("#%d %s %s -> %s (%s)", d.Seq, d.Policy, d.Action, d.Outcome, d.Reason)
	if d.Err != "" {
		s += ": " + d.Err
	}
	return s
}

// Proposal is one action a policy wants taken, with its reason.
type Proposal struct {
	Action Action
	Reason string
}

// Policy is one analyze/plan unit: it reads the tick's drained signals
// (plus whatever state it keeps across ticks) and proposes actions.
// Policies run on the supervisor's Tick goroutine only, in
// configuration order, so they need no locking; they must not read the
// wall clock — now is the only time they see.
type Policy interface {
	Name() string
	Evaluate(now time.Time, sigs []Signal) []Proposal
}

// OutcomeObserver is an optional Policy extension. The supervisor
// reports every decision that resulted from the policy's own proposals
// back to it, in decision order, on the Tick goroutine. A stateful
// policy that flips an internal latch when proposing (hysteresis,
// watermark state) uses this to roll the flip back when the proposal
// was suppressed or failed — otherwise a cooldown-suppressed relax
// would latch a tightened shed floor forever with nothing left to
// propose undoing it.
type OutcomeObserver interface {
	Observe(d Decision)
}
