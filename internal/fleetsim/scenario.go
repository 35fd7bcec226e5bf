package fleetsim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Scenario is one fleet-simulation script: the fleet to generate, the
// serving stack to run it against, the chaos to inject, and the
// assertions to check. Scenarios are deterministic: the same scenario
// and seed always produce the same event log and assertion outcomes.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed is the root of every random stream the run uses (fleet
	// generation, chaos targeting, client noise, backoff jitter).
	Seed uint64
	// Duration is the simulated (virtual) time the scenario covers.
	Duration time.Duration
	// Tick is the virtual sampling interval — the paper's FMC samples
	// every ~1.5 s; scenarios default to 1 s.
	Tick time.Duration

	Serve ServeConfig
	Train TrainConfig
	Fleet FleetConfig
	// Supervisor, when present, runs the autonomic MAPE loop inside the
	// simulation: serving-side signals feed policies that retrain,
	// slide, publish, redeploy, and reshard with no manual triggers,
	// and every decision joins the deterministic event log.
	Supervisor *SupervisorConfig
	Events     []ScenarioEvent
	// Final are the end-of-run assertions, evaluated after the last
	// flush and drain.
	Final []Check
}

// ServeConfig shapes the serve.Service under test.
type ServeConfig struct {
	// Shards is the dispatch shard count (default 2).
	Shards int
	// WindowSec is the aggregation window (default 10 virtual seconds).
	WindowSec float64
	// IncludeSlopes/IncludeIntergen enable the derived feature columns.
	IncludeSlopes   bool
	IncludeIntergen bool
	// FlushEvery runs a dispatch flush every N ticks (default 5).
	FlushEvery int
	// SessionTTL enables the idle sweep (0 = off) …
	SessionTTL time.Duration
	// … run every SweepEvery ticks (default FlushEvery).
	SweepEvery int
	// Shed enables priority load shedding.
	Shed *ShedConfig
	// AlertThreshold raises alerts when predicted RTTF crosses below
	// this many seconds (0 = no alerting).
	AlertThreshold float64
	// Registry, when present, routes model distribution through a
	// simulated remote registry: retrains publish to the registry
	// instead of deploying directly, and the service converges by
	// polling through a serve.FailoverSource on the virtual clock —
	// the stale-while-revalidate path under deterministic chaos
	// (registry_outage).
	Registry *RegistryConfig
}

// ShedConfig mirrors serve.ShedPolicy.
type ShedConfig struct {
	MaxQueueDepth int
	MinPriority   int
}

// RegistryConfig shapes the simulated remote registry path.
type RegistryConfig struct {
	// PollEvery refreshes the service from the registry every N ticks
	// (default 5) — the scenario's poll interval.
	PollEvery int
	// BreakerFailures is the circuit-breaker threshold (default 3
	// consecutive failed polls).
	BreakerFailures int
	// CooldownBase/CooldownMax bound the breaker's capped-exponential
	// cooldown in virtual time (defaults 2s / 4s — below the poll
	// interval, so a healed registry reconverges on the next poll).
	CooldownBase time.Duration
	CooldownMax  time.Duration
}

// SupervisorConfig wires an autonomic.Supervisor into the run: it is
// ticked on the virtual clock, fed the harness's serving-side signals
// (prediction-error feedback when monitored clients actually fail,
// drift scores from incremental retrains, queue depth, shed counts,
// registry staleness), and its actuators drive the same pipeline,
// service, and simulated registry the scenario runs — the closed loop
// under deterministic chaos.
type SupervisorConfig struct {
	// TickEvery runs one supervisor MAPE cycle every N runner ticks
	// (default 5).
	TickEvery int
	// Cooldown is the per-action-kind minimum spacing in virtual time
	// (default 30s).
	Cooldown time.Duration
	// RedeployAfter turns a publish deferred past this (registry still
	// stale) into a local redeploy (0 = wait indefinitely).
	RedeployAfter time.Duration

	// ErrorTrigger enables the prediction-error hysteresis policy: when
	// the EWMA of relative prediction error (graded against observed
	// failures) reaches it, the supervisor retrains (0 = disabled).
	ErrorTrigger float64
	// ErrorClear re-arms the policy (default ErrorTrigger/2).
	ErrorClear float64
	// ErrorMinSamples is the observation floor before firing (default 3).
	ErrorMinSamples int

	// DriftThreshold enables the drift threshold policy over the drift
	// scores incremental retrains report (0 = disabled).
	DriftThreshold float64
	// SlideTo makes the drift policy tighten the pipeline window to
	// this many runs before its retrain (0 = no slide).
	SlideTo int

	// OverloadHigh enables the queue-depth rate-of-change policy
	// (0 = disabled); sustained depth >= OverloadHigh (or climbing by
	// OverloadRise per observation) installs the tight shed policy,
	// sustained depth <= OverloadLow restores the relaxed one.
	OverloadHigh    float64
	OverloadLow     float64
	OverloadRise    float64
	OverloadSustain int
	TightDepth      int
	TightFloor      int
	RelaxDepth      int
	RelaxFloor      int

	// PublishAfter makes retrain-proposing policies also propose a
	// publish (registry mode) so the fleet converges, not just this
	// node.
	PublishAfter bool
}

// TrainConfig shapes the model side: the bootstrap training phase that
// produces the initial deployment, and the live retraining loop.
type TrainConfig struct {
	// Runs is the number of bootstrap training runs simulated before
	// the fleet starts (default 4).
	Runs int
	// Template names the client template that generates training runs
	// (default: the first template).
	Template string
	// Models is the roster subset to train ("linear", "m5p", "reptree",
	// "svm", "svm2"; default ["linear"] — the fast one).
	Models []string
	// MaxRuns bounds the pipeline's sliding window (0 = unbounded).
	MaxRuns int
	// RetrainEvery triggers a Pipeline.Update + Deploy after every N
	// newly completed failed runs from the fleet (0 = never retrain).
	RetrainEvery int
	// VerifyRedraw fresh-fits every model after an update that redrew
	// the train/validation split and checks prediction parity at 1e-8
	// — the SplitRedrawn correctness assertion.
	VerifyRedraw bool
	// VerifyUpdate fresh-fits every model after every update (with the
	// incremental model's frozen preprocessing pinned, where the model
	// supports it) and checks training-window prediction parity at 1e-8
	// — the warm-start correctness assertion.
	VerifyUpdate bool
	// SVMTol/SVMMaxPasses override the ε-SVR roster entry's solver
	// bounds (0 keeps the defaults). Parity assertions need a tightly
	// converged dual: the default serving tolerance leaves the solver
	// short of the unique optimum warm and cold starts share.
	SVMTol       float64
	SVMMaxPasses int
}

// FleetConfig generates the client fleet.
type FleetConfig struct {
	// Count is the fleet size.
	Count int
	// Arrival is "spike" (everyone at t=0) or "linear" (spread evenly
	// over ArrivalOver). Default "spike".
	Arrival     string
	ArrivalOver time.Duration
	// StartJitter adds seeded normal cold-start jitter (stddev) to each
	// client's arrival.
	StartJitter time.Duration
	// Templates are the client archetypes, expanded by Weight to Count
	// instances (largest-remainder rounding, at least one client for
	// every positive weight when Count allows).
	Templates []Template
}

// Template is one client archetype: a monitored application with the
// paper's TPC-W-style memory-leak ramp — leaked memory accumulates,
// spills into swap, and exhausts it, firing the failure condition.
type Template struct {
	Name   string
	Weight float64
	// Priority is the serving-session priority (load shedding floor).
	Priority int
	// MemTotalKB/SwapTotalKB size the simulated machine (defaults 4 GB
	// / 2 GB, in KB).
	MemTotalKB  float64
	SwapTotalKB float64
	// LeakKBPerSec is the mean leak rate; per-client rates are drawn
	// once with LeakJitter relative spread, per-tick amounts with
	// NoiseFrac relative noise.
	LeakKBPerSec float64
	LeakJitter   float64
	NoiseFrac    float64
	// FailFrac is the free-memory/free-swap fraction below which the
	// client fails (default 0.02, the paper's condition).
	FailFrac float64
	// RestartDelay is the virtual downtime between a failure and the
	// next run (default one tick).
	RestartDelay time.Duration
}

// ScenarioEvent is one timed entry in the script: a chaos action or an
// in-scenario assertion.
type ScenarioEvent struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Action is one of: crash_restart, flap, slow_consumer,
	// stale_model_storm, leak_burst, assert.
	Action string
	// Clients is how many running clients the action targets
	// (crash_restart, flap; seeded random choice).
	Clients int
	// Down is the outage length (crash_restart, flap).
	Down time.Duration
	// For is the condition length (slow_consumer, stale_model_storm,
	// leak_burst, registry_outage).
	For time.Duration
	// Factor multiplies the leak rate during a leak_burst (default 4).
	Factor float64
	// Fraction of the fleet a leak_burst hits (default 0.5).
	Fraction float64
	// Checks are the assertions an assert event evaluates.
	Checks []Check
}

// Check is one assertion: a named predicate over the run state, with
// an optional numeric bound. The catalog:
//
//	min_predictions: N      total estimates delivered ≥ N
//	min_alerts: N           alerts raised ≥ N
//	max_queue_depth: N      current queue depth ≤ N
//	min_sessions: N         active sessions ≥ N
//	min_completed_runs: N   fleet-wide failed runs ≥ N
//	min_retrains: N         live retrains ≥ N
//	min_model_version: N    registry version ≥ N
//	min_shed: N             shed windows ≥ N
//	max_shed: N             shed windows ≤ N
//	no_lost_windows         every never-crashed session has all its
//	                        accepted windows delivered (final only)
//	shed_only_below_floor   every shed window belongs to a priority
//	                        below the shed policy floor
//	require_redraw          at least one update redrew the split
//	require_parity          every redraw parity check passed
//	registry_stale          the model source is serving stale (registry
//	                        mode only)
//	registry_fresh          the model source is fresh — the node has a
//	                        live registry read
//	min_publishes: N        retrains published to the registry ≥ N
//	max_p99_latency: N      p99 queue latency ≤ N ticks
//	min_coalesced: N        coalesced (merged cross-shard) prediction
//	                        batches ≥ N — proves work sharing happened
//	max_batches: N          total prediction batches dispatched ≤ N —
//	                        proves light load merged into few batches
//	min_decisions: N        supervisor decisions logged ≥ N (supervisor
//	                        mode only)
//	min_reshards: N         supervisor reshard actions executed ≥ N
//	min_slides: N           supervisor slide actions executed ≥ N
//	no_errors               the run recorded no internal errors (every
//	                        push, deploy, and poll succeeded — e.g. no
//	                        ErrNoModel anywhere)
type Check struct {
	Name  string
	Value float64
	// Has reports whether a numeric bound was given.
	Has bool
}

// Actions and check names the decoder accepts.
var (
	knownActions = []string{"crash_restart", "flap", "slow_consumer", "stale_model_storm", "leak_burst", "registry_outage", "assert"}
	knownChecks  = []string{
		"min_predictions", "min_alerts", "max_queue_depth", "min_sessions",
		"min_completed_runs", "min_retrains", "min_model_version",
		"min_shed", "max_shed",
		"no_lost_windows", "shed_only_below_floor", "require_redraw", "require_parity",
		"registry_stale", "registry_fresh", "min_publishes", "max_p99_latency",
		"min_coalesced", "max_batches",
		"min_decisions", "min_reshards", "min_slides",
		"no_errors",
	}
	knownModels = []string{"linear", "m5p", "reptree", "svm", "svm2"}
)

// ParseScenario parses and validates a YAML scenario document.
func ParseScenario(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	m, ok := root.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("fleetsim: scenario document must be a map")
	}
	d := &decoder{}
	sc := d.scenario(m)
	if len(d.errs) > 0 {
		return nil, fmt.Errorf("fleetsim: invalid scenario:\n  - %s", strings.Join(d.errs, "\n  - "))
	}
	return sc, nil
}

// decoder accumulates decode errors so a bad scenario reports
// everything wrong with it at once.
type decoder struct {
	errs []string
}

func (d *decoder) errf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

// known flags unknown keys — scenario typos fail loudly.
func (d *decoder) known(m map[string]any, path string, keys ...string) {
	var bad []string
	for k := range m {
		found := false
		for _, want := range keys {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	for _, k := range bad {
		d.errf("%s: unknown key %q", path, k)
	}
}

func (d *decoder) str(m map[string]any, path, key, def string) string {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.errf("%s.%s: want a string, got %v", path, key, v)
		return def
	}
	return s
}

func (d *decoder) f64(m map[string]any, path, key string, def float64) float64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	switch n := v.(type) {
	case int64:
		return float64(n)
	case float64:
		return n
	}
	d.errf("%s.%s: want a number, got %v", path, key, v)
	return def
}

func (d *decoder) integer(m map[string]any, path, key string, def int) int {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	n, ok := v.(int64)
	if !ok {
		d.errf("%s.%s: want an integer, got %v", path, key, v)
		return def
	}
	return int(n)
}

func (d *decoder) boolean(m map[string]any, path, key string, def bool) bool {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		d.errf("%s.%s: want true/false, got %v", path, key, v)
		return def
	}
	return b
}

// dur accepts a Go duration string ("90s", "2m") or a bare number of
// seconds.
func (d *decoder) dur(m map[string]any, path, key string, def time.Duration) time.Duration {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	switch n := v.(type) {
	case string:
		dur, err := time.ParseDuration(n)
		if err != nil {
			d.errf("%s.%s: bad duration %q", path, key, n)
			return def
		}
		return dur
	case int64:
		return time.Duration(n) * time.Second
	case float64:
		return time.Duration(n * float64(time.Second))
	}
	d.errf("%s.%s: want a duration, got %v", path, key, v)
	return def
}

func (d *decoder) child(m map[string]any, key string) (map[string]any, bool) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, false
	}
	c, ok := v.(map[string]any)
	if !ok {
		d.errf("%s: want a map", key)
		return nil, false
	}
	return c, true
}

func (d *decoder) scenario(m map[string]any) *Scenario {
	d.known(m, "scenario", "name", "seed", "duration", "tick",
		"serve", "train", "fleet", "supervisor", "events", "assertions")
	sc := &Scenario{
		Name:     d.str(m, "scenario", "name", "unnamed"),
		Seed:     uint64(d.integer(m, "scenario", "seed", 1)),
		Duration: d.dur(m, "scenario", "duration", 0),
		Tick:     d.dur(m, "scenario", "tick", time.Second),
	}
	if sm, ok := d.child(m, "serve"); ok {
		sc.Serve = d.serve(sm)
	} else {
		sc.Serve = d.serve(map[string]any{})
	}
	if tm, ok := d.child(m, "train"); ok {
		sc.Train = d.train(tm)
	} else {
		sc.Train = d.train(map[string]any{})
	}
	if fm, ok := d.child(m, "fleet"); ok {
		sc.Fleet = d.fleet(fm)
	} else {
		d.errf("scenario: a fleet block is required")
	}
	if sm, ok := d.child(m, "supervisor"); ok {
		sc.Supervisor = d.supervisor(sm)
	}
	if v, ok := m["events"]; ok && v != nil {
		list, ok := v.([]any)
		if !ok {
			d.errf("events: want a list")
		}
		for i, item := range list {
			em, ok := item.(map[string]any)
			if !ok {
				d.errf("events[%d]: want a map", i)
				continue
			}
			sc.Events = append(sc.Events, d.event(em, fmt.Sprintf("events[%d]", i)))
		}
	}
	if v, ok := m["assertions"]; ok && v != nil {
		sc.Final = d.checks(v, "assertions")
	}
	d.validate(sc)
	return sc
}

func (d *decoder) serve(m map[string]any) ServeConfig {
	d.known(m, "serve", "shards", "window_sec", "include_slopes", "include_intergen",
		"flush_every", "session_ttl", "sweep_every", "shed",
		"alert_threshold", "registry")
	cfg := ServeConfig{
		Shards:          d.integer(m, "serve", "shards", 2),
		WindowSec:       d.f64(m, "serve", "window_sec", 10),
		IncludeSlopes:   d.boolean(m, "serve", "include_slopes", false),
		IncludeIntergen: d.boolean(m, "serve", "include_intergen", false),
		FlushEvery:      d.integer(m, "serve", "flush_every", 5),
		SessionTTL:      d.dur(m, "serve", "session_ttl", 0),
		AlertThreshold:  d.f64(m, "serve", "alert_threshold", 0),
	}
	cfg.SweepEvery = d.integer(m, "serve", "sweep_every", cfg.FlushEvery)
	if sm, ok := d.child(m, "shed"); ok {
		d.known(sm, "serve.shed", "max_queue_depth", "min_priority")
		cfg.Shed = &ShedConfig{
			MaxQueueDepth: d.integer(sm, "serve.shed", "max_queue_depth", 64),
			MinPriority:   d.integer(sm, "serve.shed", "min_priority", 0),
		}
	}
	if rm, ok := d.child(m, "registry"); ok {
		d.known(rm, "serve.registry", "poll_every", "breaker_failures", "cooldown_base", "cooldown_max")
		cfg.Registry = &RegistryConfig{
			PollEvery:       d.integer(rm, "serve.registry", "poll_every", 5),
			BreakerFailures: d.integer(rm, "serve.registry", "breaker_failures", 3),
			CooldownBase:    d.dur(rm, "serve.registry", "cooldown_base", 2*time.Second),
			CooldownMax:     d.dur(rm, "serve.registry", "cooldown_max", 4*time.Second),
		}
	}
	return cfg
}

func (d *decoder) supervisor(m map[string]any) *SupervisorConfig {
	d.known(m, "supervisor", "tick_every", "cooldown", "redeploy_after",
		"error_trigger", "error_clear", "error_min_samples",
		"drift_threshold", "slide_to",
		"overload_high", "overload_low", "overload_rise", "overload_sustain",
		"tight_depth", "tight_floor", "relax_depth", "relax_floor",
		"publish_after")
	return &SupervisorConfig{
		TickEvery:       d.integer(m, "supervisor", "tick_every", 5),
		Cooldown:        d.dur(m, "supervisor", "cooldown", 30*time.Second),
		RedeployAfter:   d.dur(m, "supervisor", "redeploy_after", 0),
		ErrorTrigger:    d.f64(m, "supervisor", "error_trigger", 0),
		ErrorClear:      d.f64(m, "supervisor", "error_clear", 0),
		ErrorMinSamples: d.integer(m, "supervisor", "error_min_samples", 3),
		DriftThreshold:  d.f64(m, "supervisor", "drift_threshold", 0),
		SlideTo:         d.integer(m, "supervisor", "slide_to", 0),
		OverloadHigh:    d.f64(m, "supervisor", "overload_high", 0),
		OverloadLow:     d.f64(m, "supervisor", "overload_low", 0),
		OverloadRise:    d.f64(m, "supervisor", "overload_rise", 0),
		OverloadSustain: d.integer(m, "supervisor", "overload_sustain", 3),
		TightDepth:      d.integer(m, "supervisor", "tight_depth", 0),
		TightFloor:      d.integer(m, "supervisor", "tight_floor", 0),
		RelaxDepth:      d.integer(m, "supervisor", "relax_depth", 0),
		RelaxFloor:      d.integer(m, "supervisor", "relax_floor", 0),
		PublishAfter:    d.boolean(m, "supervisor", "publish_after", false),
	}
}

func (d *decoder) train(m map[string]any) TrainConfig {
	d.known(m, "train", "runs", "template", "models", "max_runs",
		"retrain_every", "verify_redraw", "verify_update", "svm_tol", "svm_max_passes")
	cfg := TrainConfig{
		Runs:         d.integer(m, "train", "runs", 4),
		Template:     d.str(m, "train", "template", ""),
		MaxRuns:      d.integer(m, "train", "max_runs", 0),
		RetrainEvery: d.integer(m, "train", "retrain_every", 0),
		VerifyRedraw: d.boolean(m, "train", "verify_redraw", false),
		VerifyUpdate: d.boolean(m, "train", "verify_update", false),
		SVMTol:       d.f64(m, "train", "svm_tol", 0),
		SVMMaxPasses: d.integer(m, "train", "svm_max_passes", 0),
	}
	if v, ok := m["models"]; ok && v != nil {
		list, ok := v.([]any)
		if !ok {
			d.errf("train.models: want a list")
		}
		for _, item := range list {
			name, ok := item.(string)
			if !ok {
				d.errf("train.models: want model names, got %v", item)
				continue
			}
			cfg.Models = append(cfg.Models, name)
		}
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []string{"linear"}
	}
	for _, name := range cfg.Models {
		found := false
		for _, k := range knownModels {
			if name == k {
				found = true
				break
			}
		}
		if !found {
			d.errf("train.models: unknown model %q (have %s)", name, strings.Join(knownModels, ", "))
		}
	}
	return cfg
}

func (d *decoder) fleet(m map[string]any) FleetConfig {
	d.known(m, "fleet", "count", "arrival", "arrival_over", "start_jitter", "templates")
	cfg := FleetConfig{
		Count:       d.integer(m, "fleet", "count", 0),
		Arrival:     d.str(m, "fleet", "arrival", "spike"),
		ArrivalOver: d.dur(m, "fleet", "arrival_over", 0),
		StartJitter: d.dur(m, "fleet", "start_jitter", 0),
	}
	v, ok := m["templates"]
	if !ok || v == nil {
		d.errf("fleet.templates: at least one template is required")
		return cfg
	}
	list, ok := v.([]any)
	if !ok {
		d.errf("fleet.templates: want a list")
		return cfg
	}
	for i, item := range list {
		tm, ok := item.(map[string]any)
		if !ok {
			d.errf("fleet.templates[%d]: want a map", i)
			continue
		}
		path := fmt.Sprintf("fleet.templates[%d]", i)
		d.known(tm, path, "name", "weight", "priority", "mem_total_kb", "swap_total_kb",
			"leak_kb_per_sec", "leak_jitter", "noise_frac", "fail_frac", "restart_delay")
		cfg.Templates = append(cfg.Templates, Template{
			Name:         d.str(tm, path, "name", fmt.Sprintf("template-%d", i)),
			Weight:       d.f64(tm, path, "weight", 1),
			Priority:     d.integer(tm, path, "priority", 0),
			MemTotalKB:   d.f64(tm, path, "mem_total_kb", 4<<20),
			SwapTotalKB:  d.f64(tm, path, "swap_total_kb", 2<<20),
			LeakKBPerSec: d.f64(tm, path, "leak_kb_per_sec", 0),
			LeakJitter:   d.f64(tm, path, "leak_jitter", 0.1),
			NoiseFrac:    d.f64(tm, path, "noise_frac", 0.05),
			FailFrac:     d.f64(tm, path, "fail_frac", 0.02),
			RestartDelay: d.dur(tm, path, "restart_delay", 0),
		})
	}
	return cfg
}

func (d *decoder) event(m map[string]any, path string) ScenarioEvent {
	d.known(m, path, "at", "action", "clients", "down", "for", "factor", "fraction", "checks")
	ev := ScenarioEvent{
		At:       d.dur(m, path, "at", 0),
		Action:   d.str(m, path, "action", ""),
		Clients:  d.integer(m, path, "clients", 1),
		Down:     d.dur(m, path, "down", 0),
		For:      d.dur(m, path, "for", 0),
		Factor:   d.f64(m, path, "factor", 4),
		Fraction: d.f64(m, path, "fraction", 0.5),
	}
	found := false
	for _, a := range knownActions {
		if ev.Action == a {
			found = true
			break
		}
	}
	if !found {
		d.errf("%s: unknown action %q (have %s)", path, ev.Action, strings.Join(knownActions, ", "))
	}
	if v, ok := m["checks"]; ok && v != nil {
		ev.Checks = d.checks(v, path+".checks")
	}
	if ev.Action == "assert" && len(ev.Checks) == 0 {
		d.errf("%s: assert event without checks", path)
	}
	return ev
}

// checks decodes a check list: items are either bare names
// ("no_lost_windows") or single-key maps ("min_predictions: 40").
func (d *decoder) checks(v any, path string) []Check {
	list, ok := v.([]any)
	if !ok {
		d.errf("%s: want a list", path)
		return nil
	}
	var out []Check
	for i, item := range list {
		var c Check
		switch t := item.(type) {
		case string:
			c = Check{Name: t}
		case map[string]any:
			if len(t) != 1 {
				d.errf("%s[%d]: want one \"name: bound\" pair", path, i)
				continue
			}
			for k, bv := range t {
				c = Check{Name: k}
				switch n := bv.(type) {
				case int64:
					c.Value, c.Has = float64(n), true
				case float64:
					c.Value, c.Has = n, true
				default:
					d.errf("%s[%d]: bound for %q must be a number", path, i, k)
				}
			}
		default:
			d.errf("%s[%d]: want a check name or \"name: bound\"", path, i)
			continue
		}
		known := false
		for _, k := range knownChecks {
			if c.Name == k {
				known = true
				break
			}
		}
		if !known {
			d.errf("%s[%d]: unknown check %q", path, i, c.Name)
			continue
		}
		out = append(out, c)
	}
	return out
}

// validate applies the cross-field rules.
func (d *decoder) validate(sc *Scenario) {
	if sc.Duration <= 0 {
		d.errf("scenario: duration must be positive")
	}
	if sc.Tick <= 0 {
		d.errf("scenario: tick must be positive")
	}
	if sc.Serve.WindowSec <= 0 {
		d.errf("serve.window_sec must be positive")
	}
	if sc.Serve.Shards < 1 {
		d.errf("serve.shards must be at least 1")
	}
	if sc.Serve.FlushEvery < 1 {
		d.errf("serve.flush_every must be at least 1")
	}
	if sc.Fleet.Count < 1 {
		d.errf("fleet.count must be at least 1")
	}
	if sc.Fleet.Arrival != "spike" && sc.Fleet.Arrival != "linear" {
		d.errf("fleet.arrival must be \"spike\" or \"linear\", got %q", sc.Fleet.Arrival)
	}
	if sc.Fleet.Arrival == "linear" && sc.Fleet.ArrivalOver <= 0 {
		d.errf("fleet.arrival_over must be positive for linear arrival")
	}
	var weight float64
	for i, t := range sc.Fleet.Templates {
		if t.Weight < 0 {
			d.errf("fleet.templates[%d]: negative weight", i)
		}
		weight += t.Weight
		if t.LeakKBPerSec <= 0 {
			d.errf("fleet.templates[%d] (%s): leak_kb_per_sec must be positive — every client must eventually fail", i, t.Name)
		}
		if t.MemTotalKB <= 0 || t.SwapTotalKB <= 0 {
			d.errf("fleet.templates[%d] (%s): memory and swap sizes must be positive", i, t.Name)
		}
		if t.FailFrac <= 0 || t.FailFrac >= 1 {
			d.errf("fleet.templates[%d] (%s): fail_frac must be in (0,1)", i, t.Name)
		}
	}
	if len(sc.Fleet.Templates) > 0 && weight <= 0 {
		d.errf("fleet.templates: total weight must be positive")
	}
	if sc.Train.Runs < 2 {
		d.errf("train.runs must be at least 2 (the pipeline needs a train/validation split)")
	}
	if tn := sc.Train.Template; tn != "" {
		found := false
		for _, t := range sc.Fleet.Templates {
			if t.Name == tn {
				found = true
				break
			}
		}
		if !found {
			d.errf("train.template %q names no fleet template", tn)
		}
	}
	if rc := sc.Serve.Registry; rc != nil {
		if rc.PollEvery < 1 {
			d.errf("serve.registry.poll_every must be at least 1")
		}
		if rc.BreakerFailures < 1 {
			d.errf("serve.registry.breaker_failures must be at least 1")
		}
		if rc.CooldownBase <= 0 || rc.CooldownMax < rc.CooldownBase {
			d.errf("serve.registry: cooldown_base must be positive and cooldown_max >= cooldown_base")
		}
	}
	if sp := sc.Supervisor; sp != nil {
		if sp.TickEvery < 1 {
			d.errf("supervisor.tick_every must be at least 1")
		}
		if sp.Cooldown < 0 || sp.RedeployAfter < 0 {
			d.errf("supervisor: cooldown and redeploy_after must be non-negative")
		}
		if sp.ErrorTrigger <= 0 && sp.DriftThreshold <= 0 && sp.OverloadHigh <= 0 {
			d.errf("supervisor: at least one policy must be enabled (error_trigger, drift_threshold, or overload_high)")
		}
		if sp.OverloadHigh > 0 {
			if sc.Serve.Shed == nil {
				d.errf("supervisor: the overload policy needs a serve.shed block to reshard")
			}
			if sp.TightDepth < 1 {
				d.errf("supervisor.tight_depth must be at least 1 when overload_high is set")
			}
		}
		if sp.SlideTo < 0 {
			d.errf("supervisor.slide_to must be non-negative")
		}
		if sp.PublishAfter && sc.Serve.Registry == nil {
			d.errf("supervisor.publish_after needs a serve.registry block")
		}
	}
	for i, ev := range sc.Events {
		if ev.At < 0 || ev.At > sc.Duration {
			d.errf("events[%d]: at=%v outside the scenario duration", i, ev.At)
		}
		if ev.Action == "registry_outage" && sc.Serve.Registry == nil {
			d.errf("events[%d]: registry_outage needs a serve.registry block", i)
		}
	}
	// Events must be sorted by time; ties keep file order (stable).
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
}
