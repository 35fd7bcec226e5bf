package autonomic

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

func TestBusBoundedDropsOldest(t *testing.T) {
	b := NewBus(3)
	for i := 0; i < 5; i++ {
		b.Publish(Signal{Kind: SignalQueueDepth, Value: float64(i)})
	}
	got := b.Drain()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, s := range got {
		if want := float64(i + 2); s.Value != want {
			t.Fatalf("sig[%d].Value = %g, want %g (oldest dropped first)", i, s.Value, want)
		}
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
	if got := b.Drain(); len(got) != 0 {
		t.Fatalf("second Drain returned %d signals, want 0", len(got))
	}
}

func TestDriftPolicyThreshold(t *testing.T) {
	p := &DriftPolicy{Threshold: 2, SlideTo: 5, PublishAfter: true}
	if props := p.Evaluate(at(0), []Signal{{Kind: SignalDrift, Value: 1.5}}); props != nil {
		t.Fatalf("below threshold proposed %v", props)
	}
	props := p.Evaluate(at(1), []Signal{
		{Kind: SignalDrift, Value: 1.0},
		{Kind: SignalDrift, Value: 2.7},
	})
	if len(props) != 3 {
		t.Fatalf("got %d proposals, want slide+retrain+publish", len(props))
	}
	if props[0].Action.Kind != ActionSlide || props[0].Action.MaxRuns != 5 {
		t.Fatalf("first proposal = %v, want slide(max_runs=5)", props[0].Action)
	}
	if props[1].Action.Kind != ActionRetrain || props[2].Action.Kind != ActionPublish {
		t.Fatalf("order = %v,%v, want retrain,publish", props[1].Action.Kind, props[2].Action.Kind)
	}
	if !strings.Contains(props[1].Reason, "2.7") {
		t.Fatalf("reason %q should carry the worst drift score", props[1].Reason)
	}
}

func TestPredictionErrorPolicyHysteresis(t *testing.T) {
	p := &PredictionErrorPolicy{Trigger: 0.5, Clear: 0.2, Alpha: 1, MinSamples: 2}
	errSig := func(v float64) []Signal { return []Signal{{Kind: SignalPredictionError, Value: v}} }

	// First observation is past trigger but below MinSamples.
	if props := p.Evaluate(at(0), errSig(0.9)); props != nil {
		t.Fatalf("fired on first sample despite MinSamples=2: %v", props)
	}
	props := p.Evaluate(at(1), errSig(0.8))
	if len(props) != 1 || props[0].Action.Kind != ActionRetrain {
		t.Fatalf("second bad sample: got %v, want retrain", props)
	}
	// Still elevated: latched, no re-fire.
	if props := p.Evaluate(at(2), errSig(0.7)); props != nil {
		t.Fatalf("re-fired while latched: %v", props)
	}
	// Recover below Clear: re-arms but does not fire.
	if props := p.Evaluate(at(3), errSig(0.1)); props != nil {
		t.Fatalf("fired on recovery observation: %v", props)
	}
	// Error returns: fires again.
	if props := p.Evaluate(at(4), errSig(0.9)); len(props) != 1 {
		t.Fatalf("did not re-fire after clearing: %v", props)
	}
}

func TestOverloadPolicyWatermarks(t *testing.T) {
	p := &OverloadPolicy{
		HighDepth: 100, LowDepth: 10, Sustain: 2,
		TightDepth: 50, TightFloor: 7, RelaxDepth: 200, RelaxFloor: 0,
	}
	depth := func(v float64) []Signal { return []Signal{{Kind: SignalQueueDepth, Value: v}} }

	if props := p.Evaluate(at(0), depth(150)); props != nil {
		t.Fatalf("tightened after one observation, want sustain=2: %v", props)
	}
	props := p.Evaluate(at(1), depth(120))
	if len(props) != 1 || props[0].Action.Kind != ActionReshard {
		t.Fatalf("sustained overload: got %v, want reshard", props)
	}
	if props[0].Action.MaxQueueDepth != 50 || props[0].Action.MinPriority != 7 {
		t.Fatalf("tighten installed %v, want depth=50 floor=7", props[0].Action)
	}
	if !p.Tight() {
		t.Fatal("Tight() = false after tighten")
	}
	// Mid-band observation resets both counters; no flapping.
	if props := p.Evaluate(at(2), depth(50)); props != nil {
		t.Fatalf("mid-band proposed %v", props)
	}
	p.Evaluate(at(3), depth(5))
	props = p.Evaluate(at(4), depth(3))
	if len(props) != 1 || props[0].Action.MaxQueueDepth != 200 || props[0].Action.MinPriority != 0 {
		t.Fatalf("sustained drain: got %v, want relax reshard depth=200 floor=0", props)
	}
	if p.Tight() {
		t.Fatal("Tight() = true after relax")
	}
}

func TestOverloadPolicyRiseCatchesRamp(t *testing.T) {
	p := &OverloadPolicy{
		HighDepth: 1000, Rise: 20, Sustain: 2,
		TightDepth: 50, TightFloor: 5,
	}
	depth := func(v float64) []Signal { return []Signal{{Kind: SignalQueueDepth, Value: v}} }
	p.Evaluate(at(0), depth(10)) // baseline
	p.Evaluate(at(1), depth(40)) // +30: rising 1
	props := p.Evaluate(at(2), depth(70))
	if len(props) != 1 || props[0].Action.Kind != ActionReshard {
		t.Fatalf("fast ramp below HighDepth: got %v, want reshard", props)
	}
}

// policyFunc adapts a func to Policy for supervisor tests.
type policyFunc struct {
	name string
	fn   func(now time.Time, sigs []Signal) []Proposal
}

func (p policyFunc) Name() string { return p.name }
func (p policyFunc) Evaluate(now time.Time, sigs []Signal) []Proposal {
	return p.fn(now, sigs)
}

func alwaysPropose(name string, kinds ...ActionKind) Policy {
	return policyFunc{name: name, fn: func(time.Time, []Signal) []Proposal {
		out := make([]Proposal, len(kinds))
		for i, k := range kinds {
			out[i] = Proposal{Action: Action{Kind: k}, Reason: "test"}
		}
		return out
	}}
}

func TestSupervisorValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no policies accepted")
	}
	if _, err := New(Config{Policies: []Policy{nil}}); err == nil {
		t.Fatal("nil policy accepted")
	}
	p := alwaysPropose("dup", ActionRetrain)
	if _, err := New(Config{Policies: []Policy{p, p}}); err == nil {
		t.Fatal("duplicate policy name accepted")
	}
	if _, err := New(Config{
		Policies: []Policy{p},
		Cooldown: map[ActionKind]time.Duration{ActionRetrain: -time.Second},
	}); err == nil {
		t.Fatal("negative cooldown accepted")
	}
}

func TestSupervisorCooldownSuppresses(t *testing.T) {
	retrains := 0
	s, err := New(Config{
		Policies: []Policy{alwaysPropose("p", ActionRetrain)},
		Actuators: Actuators{
			Retrain: func(string) error { retrains++; return nil },
		},
		Cooldown: map[ActionKind]time.Duration{ActionRetrain: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	d1 := s.Tick(at(0))
	if len(d1) != 1 || d1[0].Outcome != OutcomeExecuted {
		t.Fatalf("first tick: %v", d1)
	}
	d2 := s.Tick(at(5))
	if len(d2) != 1 || d2[0].Outcome != OutcomeCooldown {
		t.Fatalf("inside cooldown: %v, want suppressed-but-logged", d2)
	}
	d3 := s.Tick(at(10))
	if len(d3) != 1 || d3[0].Outcome != OutcomeExecuted {
		t.Fatalf("after cooldown: %v", d3)
	}
	if retrains != 2 {
		t.Fatalf("retrains = %d, want 2", retrains)
	}
	if s.Executed(ActionRetrain) != 2 {
		t.Fatalf("Executed = %d, want 2", s.Executed(ActionRetrain))
	}
	if got := s.Outcomes(); got[OutcomeExecuted] != 2 || got[OutcomeCooldown] != 1 {
		t.Fatalf("Outcomes = %v", got)
	}
}

func TestSupervisorPublishDeferredWhileStale(t *testing.T) {
	var published, redeployed int
	fire := true
	s, err := New(Config{
		Policies: []Policy{policyFunc{name: "p", fn: func(time.Time, []Signal) []Proposal {
			if !fire {
				return nil
			}
			fire = false
			return []Proposal{{Action: Action{Kind: ActionPublish}, Reason: "drift"}}
		}}},
		Actuators: Actuators{
			Publish:  func(string) error { published++; return nil },
			Redeploy: func(string) error { redeployed++; return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Signal(Signal{Kind: SignalStaleness, Value: 30, At: at(0)})
	d := s.Tick(at(0))
	if len(d) != 1 || d[0].Outcome != OutcomeDeferred {
		t.Fatalf("publish while stale: %v, want deferred", d)
	}
	if published != 0 {
		t.Fatal("publish actuator ran while registry stale")
	}
	// Still stale: nothing happens.
	s.Signal(Signal{Kind: SignalStaleness, Value: 60, At: at(10)})
	if d := s.Tick(at(10)); len(d) != 0 {
		t.Fatalf("still stale: %v, want no decisions", d)
	}
	// Registry heals: the parked publish executes.
	s.Signal(Signal{Kind: SignalStaleness, Value: 0, At: at(20)})
	d = s.Tick(at(20))
	if len(d) != 1 || d[0].Outcome != OutcomeExecuted || d[0].Action.Kind != ActionPublish {
		t.Fatalf("after heal: %v, want executed publish", d)
	}
	if published != 1 || redeployed != 0 {
		t.Fatalf("published=%d redeployed=%d, want 1,0", published, redeployed)
	}
	if !strings.Contains(d[0].Reason, "drift") {
		t.Fatalf("retried publish lost its original reason: %q", d[0].Reason)
	}
}

func TestSupervisorRedeployFallback(t *testing.T) {
	var published, redeployed int
	fire := true
	s, err := New(Config{
		Policies: []Policy{policyFunc{name: "p", fn: func(time.Time, []Signal) []Proposal {
			if !fire {
				return nil
			}
			fire = false
			return []Proposal{{Action: Action{Kind: ActionPublish}, Reason: "drift"}}
		}}},
		Actuators: Actuators{
			Publish:  func(string) error { published++; return nil },
			Redeploy: func(string) error { redeployed++; return nil },
		},
		RedeployAfter: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Signal(Signal{Kind: SignalStaleness, Value: 5, At: at(0)})
	if d := s.Tick(at(0)); len(d) != 1 || d[0].Outcome != OutcomeDeferred {
		t.Fatalf("expected deferral, got %v", d)
	}
	s.Signal(Signal{Kind: SignalStaleness, Value: 15, At: at(10)})
	if d := s.Tick(at(10)); len(d) != 0 {
		t.Fatalf("before RedeployAfter: %v, want nothing", d)
	}
	s.Signal(Signal{Kind: SignalStaleness, Value: 35, At: at(30)})
	d := s.Tick(at(30))
	if len(d) != 1 || d[0].Action.Kind != ActionRedeploy || d[0].Outcome != OutcomeExecuted {
		t.Fatalf("at RedeployAfter: %v, want executed redeploy", d)
	}
	if published != 0 || redeployed != 1 {
		t.Fatalf("published=%d redeployed=%d, want 0,1", published, redeployed)
	}
	if s.RegistryStale() != true {
		t.Fatal("RegistryStale lost track of staleness")
	}
}

func TestSupervisorActuatorFailureLogged(t *testing.T) {
	s, err := New(Config{
		Policies: []Policy{alwaysPropose("p", ActionRetrain)},
		Actuators: Actuators{
			Retrain: func(string) error { return errors.New("pipeline busy") },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Tick(at(0))
	if len(d) != 1 || d[0].Outcome != OutcomeFailed || d[0].Err != "pipeline busy" {
		t.Fatalf("failed actuator: %+v", d)
	}
	// A failure does not start the cooldown: the next tick tries again.
	s2, _ := New(Config{
		Policies:        []Policy{alwaysPropose("p", ActionRetrain)},
		Actuators:       Actuators{Retrain: func(string) error { return errors.New("x") }},
		DefaultCooldown: time.Hour,
	})
	s2.Tick(at(0))
	d = s2.Tick(at(1))
	if len(d) != 1 || d[0].Outcome != OutcomeFailed {
		t.Fatalf("failure should not arm cooldown: %v", d)
	}
}

func TestSupervisorNoActuator(t *testing.T) {
	s, err := New(Config{
		Policies: []Policy{alwaysPropose("p", ActionRetrain, ActionSlide, ActionReshard)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Tick(at(0)) {
		if d.Outcome != OutcomeNoActuator {
			t.Fatalf("unwired arm %s: outcome %s, want no_actuator", d.Action.Kind, d.Outcome)
		}
	}
}

func TestSupervisorDecisionSequenceAndHook(t *testing.T) {
	var seen []Decision
	s, err := New(Config{
		Policies: []Policy{
			alwaysPropose("a", ActionRetrain),
			alwaysPropose("b", ActionPublish),
		},
		Actuators: Actuators{
			Retrain: func(string) error { return nil },
			Publish: func(string) error { return nil },
		},
		OnDecision: func(d Decision) { seen = append(seen, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(at(0))
	s.Tick(at(1))
	if len(seen) != 4 {
		t.Fatalf("hook saw %d decisions, want 4", len(seen))
	}
	for i, d := range seen {
		if d.Seq != i+1 {
			t.Fatalf("decision %d has seq %d, want gap-free %d", i, d.Seq, i+1)
		}
	}
	if seen[0].Policy != "a" || seen[1].Policy != "b" {
		t.Fatalf("policies ran out of order: %s, %s", seen[0].Policy, seen[1].Policy)
	}
	if s.Decisions() != 4 {
		t.Fatalf("Decisions = %d, want 4", s.Decisions())
	}
	// Stable log rendering (fingerprint material).
	want := "#1 a retrain -> executed (test)"
	if got := seen[0].String(); got != want {
		t.Fatalf("Decision.String() = %q, want %q", got, want)
	}
}

func TestActionString(t *testing.T) {
	cases := []struct {
		a    Action
		want string
	}{
		{Action{Kind: ActionRetrain}, "retrain"},
		{Action{Kind: ActionSlide, MaxRuns: 4}, "slide(max_runs=4)"},
		{Action{Kind: ActionReshard, MaxQueueDepth: 64, MinPriority: 5}, "reshard(depth=64,floor=5)"},
		{Action{Kind: ActionPublish}, "publish"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Fatalf("String(%v) = %q, want %q", c.a.Kind, got, c.want)
		}
	}
}

func TestSupervisorLaterDeferralReplacesEarlier(t *testing.T) {
	var reasons []string
	n := 0
	s, err := New(Config{
		Policies: []Policy{policyFunc{name: "p", fn: func(time.Time, []Signal) []Proposal {
			n++
			if n <= 2 {
				return []Proposal{{Action: Action{Kind: ActionPublish}, Reason: fmt.Sprintf("round %d", n)}}
			}
			return nil
		}}},
		Actuators: Actuators{
			Publish: func(reason string) error { reasons = append(reasons, reason); return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Signal(Signal{Kind: SignalStaleness, Value: 1})
	s.Tick(at(0))
	s.Tick(at(1)) // second deferral replaces the first
	s.Signal(Signal{Kind: SignalStaleness, Value: 0})
	s.Tick(at(2))
	if len(reasons) != 1 || !strings.Contains(reasons[0], "round 2") {
		t.Fatalf("executed publishes %v, want exactly the latest deferral", reasons)
	}
}

// A cooldown-suppressed relax must not latch the overload policy's
// watermark state: the supervisor reports the outcome back and the
// policy re-proposes the relax once the drained condition re-sustains.
func TestOverloadPolicyRelaxRetriesAfterCooldown(t *testing.T) {
	pol := &OverloadPolicy{HighDepth: 10, LowDepth: 2, Sustain: 2, TightDepth: 8, TightFloor: 2, RelaxDepth: 64}
	var floors []int
	s, err := New(Config{
		Policies:        []Policy{pol},
		DefaultCooldown: 40 * time.Second,
		Actuators: Actuators{
			Reshard: func(depth, floor int, reason string) error { floors = append(floors, floor); return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := func(sec int, v float64) {
		s.Signal(Signal{Kind: SignalQueueDepth, Value: v})
		s.Tick(at(sec))
	}
	depth(0, 15)
	depth(5, 15) // tighten executes at t=5
	if !pol.Tight() {
		t.Fatal("policy not tight after sustained overload")
	}
	depth(10, 0)
	depth(15, 0) // relax proposed at t=15, 10s after tighten -> cooldown
	if pol.Tight() != true {
		t.Fatal("suppressed relax must leave the policy tight (state rolled back)")
	}
	depth(20, 0)
	depth(25, 0) // re-sustained, still inside cooldown
	depth(50, 0)
	depth(55, 0) // re-sustained past the cooldown: relax executes
	if pol.Tight() {
		t.Fatal("policy still tight after executed relax")
	}
	if len(floors) != 2 || floors[0] != 2 || floors[1] != 0 {
		t.Fatalf("executed reshards %v, want [2 0] (tighten then relax)", floors)
	}
	if got := s.Executed(ActionReshard); got != 2 {
		t.Fatalf("Executed(reshard) = %d, want 2", got)
	}
}

// A cooldown-suppressed retrain must release the prediction-error
// policy's fired latch so the retrain is retried, while an executed
// retrain keeps the latch until the EWMA recovers below Clear.
func TestPredictionErrorPolicyRetriesSuppressedRetrain(t *testing.T) {
	pol := &PredictionErrorPolicy{Trigger: 1, Clear: 0.3, Alpha: 1, MinSamples: 1}
	retrains := 0
	s, err := New(Config{
		Policies:        []Policy{pol},
		DefaultCooldown: 40 * time.Second,
		Actuators: Actuators{
			Retrain: func(reason string) error { retrains++; return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	errSig := func(sec int, v float64) {
		s.Signal(Signal{Kind: SignalPredictionError, Value: v})
		s.Tick(at(sec))
	}
	errSig(0, 2) // fires, executes
	if retrains != 1 {
		t.Fatalf("retrains = %d, want 1", retrains)
	}
	// Executed retrain latches: persistent high error does not re-fire.
	errSig(5, 2)
	if retrains != 1 {
		t.Fatalf("latched policy retrained again: %d", retrains)
	}
	// Recover below Clear, then cross the trigger again inside the
	// cooldown: proposal suppressed, latch released, retried after.
	errSig(10, 0.1)
	errSig(20, 2) // cooldown (20s < 40s), latch released
	errSig(45, 2) // past cooldown: executes
	if retrains != 2 {
		t.Fatalf("retrains = %d, want 2 (suppressed proposal retried)", retrains)
	}
}
