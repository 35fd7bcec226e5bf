package fleetsim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// LogEntry is one line of the scenario's deterministic event log:
// everything that happened, in order, with no wall-clock content — two
// runs of the same scenario and seed produce byte-identical logs.
type LogEntry struct {
	Tick   int    `json:"tick"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// CheckResult is one evaluated assertion.
type CheckResult struct {
	// At is "final" or the virtual time of the assert event ("t=90s").
	At     string `json:"at"`
	Check  string `json:"check"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

// SessionReport is the per-client accounting table: how many windows
// the client's aggregation completed, how many the shed policy dropped,
// and how many estimates came back. For a session that never crashed,
// Lost (= Windows − Shed − Delivered after the final drain) must be 0 —
// the harness's no-lost-windows invariant.
type SessionReport struct {
	ID        string `json:"id"`
	Template  string `json:"template"`
	Priority  int    `json:"priority"`
	Runs      int    `json:"runs"`
	Crashes   int    `json:"crashes"`
	Flaps     int    `json:"flaps"`
	Pushed    int    `json:"pushed"`
	Windows   int    `json:"windows"`
	Shed      int    `json:"shed"`
	Delivered int    `json:"delivered"`
	Lost      int    `json:"lost"`
}

// LatencyBucket is one row of the queue-latency histogram: how many
// windows waited exactly Ticks virtual ticks for their estimate.
type LatencyBucket struct {
	Ticks int `json:"ticks"`
	Count int `json:"count"`
}

// Report is the scenario outcome: counters, the per-session table, the
// assertion results, and the full event log. Everything except
// WallDuration is deterministic under a fixed scenario and seed.
type Report struct {
	Scenario        string `json:"scenario"`
	Seed            uint64 `json:"seed"`
	Ticks           int    `json:"ticks"`
	VirtualDuration string `json:"virtual_duration"`
	WallDuration    string `json:"wall_duration,omitempty"`

	Clients       int `json:"clients"`
	CompletedRuns int `json:"completed_runs"`
	Crashes       int `json:"crashes"`
	Flaps         int `json:"flaps"`

	Retrains          int      `json:"retrains"`
	Redraws           int      `json:"redraws"`
	ParityChecks      int      `json:"parity_checks"`
	ParityFailures    []string `json:"parity_failures,omitempty"`
	Deploys           int      `json:"deploys"`
	FinalModelVersion uint64   `json:"final_model_version"`

	Predictions     uint64         `json:"predictions"`
	Alerts          uint64         `json:"alerts"`
	ShedWindows     uint64         `json:"shed_windows"`
	ShedByPriority  map[int]uint64 `json:"shed_by_priority,omitempty"`
	EvictedSessions uint64         `json:"evicted_sessions"`
	MaxQueueDepth   int            `json:"max_queue_depth"`
	Batches         int            `json:"batches"`
	MaxBatchSize    int            `json:"max_batch_size"`
	// CoalescedBatches counts prediction batches that merged a neighbor
	// shard's windows (serve's work sharing), CoalescedWindows the
	// neighbor windows themselves — the light-load regime's signature
	// is few, large, mostly-coalesced batches.
	CoalescedBatches uint64 `json:"coalesced_batches,omitempty"`
	CoalescedWindows uint64 `json:"coalesced_windows,omitempty"`

	// Queue latency distribution, in virtual ticks from window
	// completion to estimate delivery. The percentiles are
	// nearest-rank over LatencyHistogram, so scenarios can assert tail
	// latency (max_p99_latency), not just the mean.
	MeanLatencyTicks float64         `json:"mean_latency_ticks"`
	MaxLatencyTicks  int             `json:"max_latency_ticks"`
	LatencyP50Ticks  int             `json:"latency_p50_ticks"`
	LatencyP90Ticks  int             `json:"latency_p90_ticks"`
	LatencyP99Ticks  int             `json:"latency_p99_ticks"`
	LatencyHistogram []LatencyBucket `json:"latency_histogram,omitempty"`
	LostWindows      int             `json:"lost_windows"`

	// Registry mode (ServeConfig.Registry): how many retrains were
	// published to the simulated registry, and whether the model
	// source was still serving stale when the run ended.
	Publishes    int  `json:"publishes,omitempty"`
	FinallyStale bool `json:"finally_stale,omitempty"`

	// Supervisor mode (Scenario.Supervisor): how many decisions the
	// autonomic loop made (every one is also a "decision" log line)
	// and how many actions of each kind actually executed.
	Decisions       int            `json:"decisions,omitempty"`
	ActionsExecuted map[string]int `json:"actions_executed,omitempty"`

	Sessions   []SessionReport `json:"sessions"`
	Assertions []CheckResult   `json:"assertions"`
	Errors     []string        `json:"errors,omitempty"`
	Log        []LogEntry      `json:"log"`

	// Passed is true when every assertion held and the run recorded no
	// internal errors.
	Passed bool `json:"passed"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Fingerprint is the canonical replay-comparison form: the event log
// and assertion outcomes, one per line, with the wall clock excluded.
// Two runs of the same scenario and seed must produce identical
// fingerprints — the deterministic-replay contract.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s seed=%d ticks=%d\n", r.Scenario, r.Seed, r.Ticks)
	for _, e := range r.Log {
		fmt.Fprintf(&b, "%06d %s %s\n", e.Tick, e.Kind, e.Detail)
	}
	for _, c := range r.Assertions {
		fmt.Fprintf(&b, "assert %s %s passed=%v %s\n", c.At, c.Check, c.Passed, c.Detail)
	}
	fmt.Fprintf(&b, "predictions=%d shed=%d runs=%d lost=%d passed=%v\n",
		r.Predictions, r.ShedWindows, r.CompletedRuns, r.LostWindows, r.Passed)
	fmt.Fprintf(&b, "latency p50=%d p90=%d p99=%d max=%d publishes=%d decisions=%d\n",
		r.LatencyP50Ticks, r.LatencyP90Ticks, r.LatencyP99Ticks, r.MaxLatencyTicks, r.Publishes, r.Decisions)
	fmt.Fprintf(&b, "batches=%d maxbatch=%d coalesced=%d stolen=%d\n",
		r.Batches, r.MaxBatchSize, r.CoalescedBatches, r.CoalescedWindows)
	return b.String()
}

// WriteText renders the human-readable summary.
func (r *Report) WriteText(w io.Writer) {
	status := "PASSED"
	if !r.Passed {
		status = "FAILED"
	}
	fmt.Fprintf(w, "scenario %q (seed %d): %s\n", r.Scenario, r.Seed, status)
	fmt.Fprintf(w, "  simulated %s in %d ticks", r.VirtualDuration, r.Ticks)
	if r.WallDuration != "" {
		fmt.Fprintf(w, " (%s wall)", r.WallDuration)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  fleet: %d clients, %d completed runs, %d crashes, %d flaps\n",
		r.Clients, r.CompletedRuns, r.Crashes, r.Flaps)
	fmt.Fprintf(w, "  models: %d retrains, %d split redraws (%d parity checks, %d failures), %d deploys, final version %d\n",
		r.Retrains, r.Redraws, r.ParityChecks, len(r.ParityFailures), r.Deploys, r.FinalModelVersion)
	fmt.Fprintf(w, "  serving: %d predictions, %d alerts, %d batches (max %d), peak queue %d, %d evictions\n",
		r.Predictions, r.Alerts, r.Batches, r.MaxBatchSize, r.MaxQueueDepth, r.EvictedSessions)
	if r.CoalescedBatches > 0 {
		fmt.Fprintf(w, "  coalescing: %d merged batches, %d windows stolen cross-shard\n",
			r.CoalescedBatches, r.CoalescedWindows)
	}
	fmt.Fprintf(w, "  latency: mean %.2f ticks, p50 %d, p90 %d, p99 %d, max %d ticks\n",
		r.MeanLatencyTicks, r.LatencyP50Ticks, r.LatencyP90Ticks, r.LatencyP99Ticks, r.MaxLatencyTicks)
	if r.Publishes > 0 || r.FinallyStale {
		fmt.Fprintf(w, "  registry: %d publishes, finally stale: %v\n", r.Publishes, r.FinallyStale)
	}
	if r.Decisions > 0 {
		kinds := make([]string, 0, len(r.ActionsExecuted))
		for k := range r.ActionsExecuted {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "  supervisor: %d decisions, executed {", r.Decisions)
		for i, k := range kinds {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s: %d", k, r.ActionsExecuted[k])
		}
		fmt.Fprintln(w, "}")
	}
	if r.ShedWindows > 0 {
		prios := make([]int, 0, len(r.ShedByPriority))
		for p := range r.ShedByPriority {
			prios = append(prios, p)
		}
		sort.Ints(prios)
		fmt.Fprintf(w, "  shed: %d windows by priority {", r.ShedWindows)
		for i, p := range prios {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%d: %d", p, r.ShedByPriority[p])
		}
		fmt.Fprintln(w, "}")
	}
	fmt.Fprintf(w, "  windows lost (never-crashed sessions): %d\n", r.LostWindows)
	if len(r.Errors) > 0 {
		fmt.Fprintf(w, "  internal errors:\n")
		for _, e := range r.Errors {
			fmt.Fprintf(w, "    - %s\n", e)
		}
	}
	fmt.Fprintf(w, "  assertions (%d):\n", len(r.Assertions))
	for _, c := range r.Assertions {
		mark := "ok  "
		if !c.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "    %s %-8s %-22s %s\n", mark, c.At, c.Check, c.Detail)
	}
}
