package autonomic

import (
	"fmt"
	"time"
)

// DriftPolicy is the threshold policy family: when an incremental
// update reports feature drift at or past Threshold, the regime the
// model was fitted on no longer describes the fleet — propose a
// retrain, optionally preceded by a window slide that evicts the
// pre-drift runs so the refit trains on post-drift data.
type DriftPolicy struct {
	// Threshold is the drift score (frozen-σ units, see
	// ml.UpdateInfo.DriftScore) at which the policy fires.
	Threshold float64
	// SlideTo, when positive, proposes tightening the training window
	// to this many runs before the retrain.
	SlideTo int
	// PublishAfter also proposes publishing the retrained model.
	PublishAfter bool
}

// Name implements Policy.
func (p *DriftPolicy) Name() string { return "drift" }

// Evaluate implements Policy.
func (p *DriftPolicy) Evaluate(now time.Time, sigs []Signal) []Proposal {
	worst, seen := 0.0, false
	for _, s := range sigs {
		if s.Kind == SignalDrift && (!seen || s.Value > worst) {
			worst, seen = s.Value, true
		}
	}
	if !seen || worst < p.Threshold {
		return nil
	}
	reason := fmt.Sprintf("drift %.3g >= %.3g", worst, p.Threshold)
	var out []Proposal
	if p.SlideTo > 0 {
		out = append(out, Proposal{Action: Action{Kind: ActionSlide, MaxRuns: p.SlideTo}, Reason: reason})
	}
	out = append(out, Proposal{Action: Action{Kind: ActionRetrain}, Reason: reason})
	if p.PublishAfter {
		out = append(out, Proposal{Action: Action{Kind: ActionPublish}, Reason: reason})
	}
	return out
}

// PredictionErrorPolicy is the hysteresis policy family: it folds
// prediction-error feedback into an exponentially weighted moving
// average and fires a retrain (plus optional publish) when the average
// crosses Trigger — then stays quiet until the average has recovered
// below Clear, so a model that is merely slow to improve is not
// retrained on every tick. Combined with the supervisor's per-action
// cooldown this is the loop's main defense against thrash.
type PredictionErrorPolicy struct {
	// Trigger is the EWMA relative-error level that fires (required).
	Trigger float64
	// Clear re-arms the policy once the EWMA recovers below it
	// (default Trigger/2).
	Clear float64
	// Alpha is the EWMA weight of each new sample (default 0.3).
	Alpha float64
	// MinSamples is how many error observations must have been folded
	// in before the policy may fire (default 3) — one unlucky first
	// failure does not trigger a retrain.
	MinSamples int
	// PublishAfter also proposes publishing the retrained model.
	PublishAfter bool

	ewma  float64
	n     int
	fired bool
}

// Name implements Policy.
func (p *PredictionErrorPolicy) Name() string { return "prediction_error" }

// Mean returns the current error EWMA (diagnostics).
func (p *PredictionErrorPolicy) Mean() float64 { return p.ewma }

// Evaluate implements Policy.
func (p *PredictionErrorPolicy) Evaluate(now time.Time, sigs []Signal) []Proposal {
	alpha := p.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	minN := p.MinSamples
	if minN <= 0 {
		minN = 3
	}
	clear := p.Clear
	if clear <= 0 {
		clear = p.Trigger / 2
	}
	for _, s := range sigs {
		if s.Kind != SignalPredictionError {
			continue
		}
		if p.n == 0 {
			p.ewma = s.Value
		} else {
			p.ewma = alpha*s.Value + (1-alpha)*p.ewma
		}
		p.n++
	}
	if p.fired {
		if p.ewma <= clear {
			p.fired = false
		}
		return nil
	}
	if p.Trigger <= 0 || p.n < minN || p.ewma < p.Trigger {
		return nil
	}
	p.fired = true
	reason := fmt.Sprintf("prediction error ewma %.3g >= %.3g over %d observations", p.ewma, p.Trigger, p.n)
	out := []Proposal{{Action: Action{Kind: ActionRetrain}, Reason: reason}}
	if p.PublishAfter {
		out = append(out, Proposal{Action: Action{Kind: ActionPublish}, Reason: reason})
	}
	return out
}

// Observe implements OutcomeObserver: a retrain proposal that was
// suppressed or failed did not actually improve the model, so the
// fired latch is released and the policy proposes again on the next
// tick — the supervisor's cooldown, not the latch, is what rate-limits
// the retry. An executed retrain keeps the latch until the EWMA
// recovers below Clear.
func (p *PredictionErrorPolicy) Observe(d Decision) {
	if d.Action.Kind != ActionRetrain {
		return
	}
	if d.Outcome != OutcomeExecuted && d.Outcome != OutcomeDeferred {
		p.fired = false
	}
}

// OverloadPolicy is the rate-of-change policy family over the serving
// backpressure signal: sustained queue depth at or past HighDepth — or
// depth climbing by at least Rise per observation — tightens the shed
// policy (higher priority floor, bounded loss instead of unbounded
// latency); sustained depth at or below LowDepth relaxes it back. The
// tighten/relax pair has watermark hysteresis built in, so the floor
// does not flap around a noisy depth.
type OverloadPolicy struct {
	// HighDepth is the overload watermark (required).
	HighDepth float64
	// LowDepth is the drained watermark below which the policy relaxes
	// (default HighDepth/4).
	LowDepth float64
	// Rise, when positive, also counts an observation toward overload
	// when depth climbed by at least Rise since the previous
	// observation — catching a fast ramp before it reaches HighDepth.
	Rise float64
	// Sustain is how many consecutive qualifying observations arm
	// either transition (default 3).
	Sustain int
	// TightDepth/TightFloor are the shed policy installed on overload.
	TightDepth int
	TightFloor int
	// RelaxDepth/RelaxFloor are the shed policy restored after drain.
	RelaxDepth int
	RelaxFloor int

	over, under int
	tight       bool
	last        float64
	haveLast    bool
	// flips records the direction of each not-yet-observed reshard
	// proposal (true = tighten), in proposal order, so Observe can
	// revert exactly the transition whose action was suppressed.
	flips []bool
}

// Name implements Policy.
func (p *OverloadPolicy) Name() string { return "overload" }

// Tight reports whether the tightened shed policy is currently
// installed (diagnostics).
func (p *OverloadPolicy) Tight() bool { return p.tight }

// Evaluate implements Policy.
func (p *OverloadPolicy) Evaluate(now time.Time, sigs []Signal) []Proposal {
	sustain := p.Sustain
	if sustain <= 0 {
		sustain = 3
	}
	low := p.LowDepth
	if low <= 0 {
		low = p.HighDepth / 4
	}
	var out []Proposal
	for _, s := range sigs {
		if s.Kind != SignalQueueDepth {
			continue
		}
		depth := s.Value
		rising := p.Rise > 0 && p.haveLast && depth-p.last >= p.Rise
		p.last, p.haveLast = depth, true
		switch {
		case p.HighDepth > 0 && depth >= p.HighDepth, rising:
			p.over++
			p.under = 0
		case depth <= low:
			p.under++
			p.over = 0
		default:
			p.over, p.under = 0, 0
		}
		if !p.tight && p.over >= sustain {
			p.tight, p.over = true, 0
			p.flips = append(p.flips, true)
			out = append(out, Proposal{
				Action: Action{Kind: ActionReshard, MaxQueueDepth: p.TightDepth, MinPriority: p.TightFloor},
				Reason: fmt.Sprintf("queue depth %g sustained over %d observations", depth, sustain),
			})
		}
		if p.tight && p.under >= sustain {
			p.tight, p.under = false, 0
			p.flips = append(p.flips, false)
			out = append(out, Proposal{
				Action: Action{Kind: ActionReshard, MaxQueueDepth: p.RelaxDepth, MinPriority: p.RelaxFloor},
				Reason: fmt.Sprintf("queue drained to %g for %d observations", depth, sustain),
			})
		}
	}
	return out
}

// Observe implements OutcomeObserver: a reshard that did not execute
// left the installed shed policy where it was, so the watermark state
// flipped at proposal time is reverted — the condition is still being
// observed and the policy will propose the same transition again once
// it re-sustains, with the supervisor's cooldown rate-limiting the
// retries.
func (p *OverloadPolicy) Observe(d Decision) {
	if d.Action.Kind != ActionReshard || len(p.flips) == 0 {
		return
	}
	tightened := p.flips[0]
	p.flips = p.flips[1:]
	if d.Outcome == OutcomeExecuted {
		return
	}
	p.tight = !tightened
}
