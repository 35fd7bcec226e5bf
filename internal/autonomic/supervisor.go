package autonomic

import (
	"fmt"
	"time"
)

// Config shapes a Supervisor.
type Config struct {
	// Policies run in order on every Tick; earlier policies' actions
	// execute before later ones are evaluated against the same tick's
	// signals.
	Policies []Policy
	// Actuators are the execute arms; nil arms log OutcomeNoActuator.
	Actuators Actuators
	// Cooldown is the minimum spacing between executions per action
	// kind; kinds absent from the map use DefaultCooldown. Proposals
	// inside the cooldown are logged with OutcomeCooldown, not
	// executed.
	Cooldown map[ActionKind]time.Duration
	// DefaultCooldown applies to action kinds without an entry in
	// Cooldown (0 = no cooldown).
	DefaultCooldown time.Duration
	// RedeployAfter bounds how long a deferred publish waits for the
	// registry to heal: a publish parked longer than this while the
	// registry is still stale is executed as a local Redeploy instead,
	// so the node itself serves the retrained model even when the
	// fleet cannot converge on it yet. 0 disables the fallback.
	RedeployAfter time.Duration
	// BusCapacity bounds the signal bus (DefaultBusCapacity if <= 0).
	BusCapacity int
	// OnDecision observes every decision as it is made, in sequence
	// order — the hook a structured decision log hangs off. Called on
	// the Tick goroutine.
	OnDecision func(Decision)
}

// Supervisor is the closed loop: signals in (Signal/Bus), decisions
// out (Tick). It owns no goroutines and no clock — the caller ticks it
// with explicit timestamps, which is what makes a chaos scenario's
// decision stream replayable. Signal is safe to call concurrently with
// Tick; Tick itself must be called from one goroutine at a time.
type Supervisor struct {
	cfg Config
	bus *Bus

	seq      int
	lastExec map[ActionKind]time.Time
	stale    bool

	// pending is the deferred publish (at most one — publishes are
	// idempotent over "the latest trained model", so later deferrals
	// replace earlier ones).
	pending    *Proposal
	pendingAt  time.Time
	pendingPol string

	counts map[Outcome]int
	execs  map[ActionKind]int
}

// New validates the configuration and returns a supervisor.
func New(cfg Config) (*Supervisor, error) {
	if len(cfg.Policies) == 0 {
		return nil, fmt.Errorf("autonomic: at least one policy is required")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Policies {
		if p == nil {
			return nil, fmt.Errorf("autonomic: nil policy")
		}
		if seen[p.Name()] {
			return nil, fmt.Errorf("autonomic: duplicate policy %q", p.Name())
		}
		seen[p.Name()] = true
	}
	for kind, d := range cfg.Cooldown {
		if d < 0 {
			return nil, fmt.Errorf("autonomic: negative cooldown for %q", kind)
		}
	}
	return &Supervisor{
		cfg:      cfg,
		bus:      NewBus(cfg.BusCapacity),
		lastExec: map[ActionKind]time.Time{},
		counts:   map[Outcome]int{},
		execs:    map[ActionKind]int{},
	}, nil
}

// Signal publishes one observation onto the supervisor's bus.
func (s *Supervisor) Signal(sig Signal) { s.bus.Publish(sig) }

// Bus returns the supervisor's signal bus, for producers that want to
// publish directly.
func (s *Supervisor) Bus() *Bus { return s.bus }

// Decisions returns how many decisions the supervisor has made.
func (s *Supervisor) Decisions() int { return s.seq }

// Outcomes returns a copy of the per-outcome decision counts.
func (s *Supervisor) Outcomes() map[Outcome]int {
	out := make(map[Outcome]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Executed returns how many actions of the kind have actually run.
func (s *Supervisor) Executed(kind ActionKind) int { return s.execs[kind] }

// RegistryStale reports the staleness state the supervisor last
// observed via SignalStaleness.
func (s *Supervisor) RegistryStale() bool { return s.stale }

// Tick runs one MAPE cycle at now: drain the bus, update the registry
// staleness view, retry (or fall back on) a deferred publish, then
// evaluate every policy and execute its proposals through the
// actuators. It returns the decisions made this cycle, in order.
func (s *Supervisor) Tick(now time.Time) []Decision {
	sigs := s.bus.Drain()
	for _, sig := range sigs {
		if sig.Kind == SignalStaleness {
			s.stale = sig.Value > 0
		}
	}

	var out []Decision
	if s.pending != nil {
		switch {
		case !s.stale:
			p := *s.pending
			s.pending = nil
			d := s.decide(now, s.pendingPol,
				Proposal{Action: p.Action, Reason: "registry fresh again; " + p.Reason})
			s.observe(s.pendingPol, d)
			out = append(out, d)
		case s.cfg.RedeployAfter > 0 && now.Sub(s.pendingAt) >= s.cfg.RedeployAfter:
			p := *s.pending
			s.pending = nil
			d := s.decide(now, s.pendingPol, Proposal{
				Action: Action{Kind: ActionRedeploy},
				Reason: fmt.Sprintf("registry stale past %s; deploying locally instead of publish (%s)",
					s.cfg.RedeployAfter, p.Reason),
			})
			s.observe(s.pendingPol, d)
			out = append(out, d)
		}
	}
	for _, pol := range s.cfg.Policies {
		for _, prop := range pol.Evaluate(now, sigs) {
			d := s.decide(now, pol.Name(), prop)
			if obs, ok := pol.(OutcomeObserver); ok {
				obs.Observe(d)
			}
			out = append(out, d)
		}
	}
	return out
}

// observe routes a decision back to the policy that proposed it, by
// name — the deferred-publish path loses the policy pointer when it
// parks the proposal, so the retry looks it up again.
func (s *Supervisor) observe(policy string, d Decision) {
	for _, pol := range s.cfg.Policies {
		if pol.Name() != policy {
			continue
		}
		if obs, ok := pol.(OutcomeObserver); ok {
			obs.Observe(d)
		}
		return
	}
}

// decide resolves one proposal into a decision: cooldown suppression,
// stale-registry publish deferral, or actuator execution.
func (s *Supervisor) decide(now time.Time, policy string, prop Proposal) Decision {
	s.seq++
	d := Decision{Seq: s.seq, At: now, Policy: policy, Action: prop.Action, Reason: prop.Reason}

	kind := prop.Action.Kind
	cd, ok := s.cfg.Cooldown[kind]
	if !ok {
		cd = s.cfg.DefaultCooldown
	}
	if last, fired := s.lastExec[kind]; fired && cd > 0 && now.Sub(last) < cd {
		d.Outcome = OutcomeCooldown
		d.Err = fmt.Sprintf("last %s at %s ago < cooldown %s", kind, now.Sub(last), cd)
		return s.record(d)
	}
	if kind == ActionPublish && s.stale {
		d.Outcome = OutcomeDeferred
		s.pending = &Proposal{Action: prop.Action, Reason: prop.Reason}
		s.pendingAt = now
		s.pendingPol = policy
		return s.record(d)
	}

	var err error
	a := s.cfg.Actuators
	switch kind {
	case ActionRetrain:
		err = run(a.Retrain, prop.Reason, &d)
	case ActionSlide:
		if a.Slide == nil {
			d.Outcome = OutcomeNoActuator
		} else {
			err = a.Slide(prop.Action.MaxRuns, prop.Reason)
		}
	case ActionPublish:
		err = run(a.Publish, prop.Reason, &d)
	case ActionRedeploy:
		err = run(a.Redeploy, prop.Reason, &d)
	case ActionReshard:
		if a.Reshard == nil {
			d.Outcome = OutcomeNoActuator
		} else {
			err = a.Reshard(prop.Action.MaxQueueDepth, prop.Action.MinPriority, prop.Reason)
		}
	default:
		d.Outcome = OutcomeFailed
		d.Err = fmt.Sprintf("unknown action kind %q", kind)
		return s.record(d)
	}
	if d.Outcome == OutcomeNoActuator {
		return s.record(d)
	}
	if err != nil {
		d.Outcome = OutcomeFailed
		d.Err = err.Error()
		return s.record(d)
	}
	d.Outcome = OutcomeExecuted
	s.lastExec[kind] = now
	s.execs[kind]++
	return s.record(d)
}

// run invokes a parameterless actuator, marking the decision when the
// arm is not wired.
func run(fn func(string) error, reason string, d *Decision) error {
	if fn == nil {
		d.Outcome = OutcomeNoActuator
		return nil
	}
	return fn(reason)
}

// record finalizes one decision: counters and the OnDecision hook.
func (s *Supervisor) record(d Decision) Decision {
	s.counts[d.Outcome]++
	if s.cfg.OnDecision != nil {
		s.cfg.OnDecision(d)
	}
	return d
}
