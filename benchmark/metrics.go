package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec declares one metric the way BENCHMARK.json does; the test
// in this directory keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"dp_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_dp", "us", "lower", 0.15},
	{"est_latency_p50_ms", "ms", "lower", 0.15},
	{"est_latency_p95_ms", "ms", "lower", 0.20},
	{"rss_mb", "MB", "lower", 0.10},
	{"retrain_to_serve_ms", "ms", "lower", 0.15},
	{"pipeline_run_s", "s", "lower", 0.15},
}

// perLayer is measured from outside each layer in the traced run:
// spans around the benchmark's own calls, Service.Stats samples, and
// layer probes. A metric that does not apply to a workload reads 0
// there — which is also how a workload shows it bypasses a layer.
var perLayer = []metricSpec{
	{Name: "monitor.send_ns_per_dp", Unit: "ns", Better: "lower"},
	{Name: "monitor.transit_p50_us", Unit: "us", Better: "lower"},
	{Name: "monitor.probe_ns_per_dp", Unit: "ns", Better: "lower"},
	{Name: "monitor.allocs_per_dp", Unit: "count", Better: "lower"},
	{Name: "monitor.retained_bytes_per_dp", Unit: "B", Better: "lower"},
	{Name: "monitor.wire_bytes_per_dp", Unit: "B", Better: "lower"},
	{Name: "monitor.dropped_dp", Unit: "count", Better: "lower"},
	{Name: "aggregate.push_ns_per_dp", Unit: "ns", Better: "lower"},
	{Name: "aggregate.allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "serve.handle_ns_per_dp", Unit: "ns", Better: "lower"},
	{Name: "serve.push_ns_per_dp", Unit: "ns", Better: "lower"},
	{Name: "serve.flush_probe_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "serve.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "serve.shed_windows", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced_windows", Unit: "count", Better: "higher"},
	{Name: "serve.migrations", Unit: "count", Better: "lower"},
	{Name: "serve.deploy_us", Unit: "us", Better: "lower"},
	{Name: "serve.start_session_us", Unit: "us", Better: "lower"},
	{Name: "serve.close_session_us", Unit: "us", Better: "lower"},
	{Name: "serve.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.predict_ns_per_row_b1", Unit: "ns", Better: "lower"},
	{Name: "ml.predict_ns_per_row_b16", Unit: "ns", Better: "lower"},
	{Name: "ml.predict_ns_per_row_b256", Unit: "ns", Better: "lower"},
	{Name: "ml.model_rows", Unit: "count", Better: "lower"},
	{Name: "core.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.update_incremental_share", Unit: "ratio", Better: "higher"},
	{Name: "core.best_smae_s", Unit: "s", Better: "lower"},
	{Name: "featsel.path_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.gram_rbf_n1000_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.cholesky_n1000_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.read_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "modelio.save_ms", Unit: "ms", Better: "lower"},
	{Name: "modelio.load_ms", Unit: "ms", Better: "lower"},
	{Name: "modelio.envelope_kb", Unit: "kB", Better: "lower"},
	{Name: "registry.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.not_modified_us", Unit: "us", Better: "lower"},
	{Name: "e2e.est_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p95_us", Unit: "us", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.dp_per_s_gomaxprocs1", Unit: "1/s", Better: "higher"},
	{Name: "budget.sum_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes are printed above the result for a human: sample counts,
	// slice counts, why a run is invalid.
	notes []string
}

func newResult() *result { return &result{Metrics: map[string]metricValue{}} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete reduces the result to the metrics of specs — the untraced
// run reports the end-to-end list, the traced run the per-layer one —
// filling in with 0 those the workload did not set (they do not apply
// to it), and marks the run incorrect when an end-to-end value is not a
// positive finite number or an operation failed.
func (r *result) complete(specs []metricSpec, positive bool) {
	declared := map[string]string{}
	for _, s := range specs {
		declared[s.Name] = s.Unit
		if _, ok := r.Metrics[s.Name]; !ok {
			r.Metrics[s.Name] = metricValue{0, s.Unit}
		}
	}
	for name, v := range r.Metrics {
		unit, ok := declared[name]
		if !ok {
			delete(r.Metrics, name)
			continue
		}
		v.Unit = unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (positive && v.Value <= 0) {
			r.note("INVALID: %s = %v", name, v.Value)
			r.Correct = false
			v.Value = 0
		}
		r.Metrics[name] = v
	}
	if r.Failed > 0 || r.Attempted < 1 {
		r.Correct = false
	}
}

// set records a metric, which must be declared in one of the two lists.
func (r *result) set(name string, v float64) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				r.Metrics[name] = metricValue{Value: v}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// print writes the human-readable table and then the result line.
func (r *result) print(w io.Writer, specs []metricSpec) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, s := range specs {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedRSS is the resident set less the heap memory the collector
// has just found free and not yet handed back: what the process
// retains, which repeats between runs, rather than how far the
// collector happened to let the heap grow, which does not. The free
// memory is subtracted on paper, not returned (debug.FreeOSMemory):
// the next phase would have to fault every page back in, and on a guest
// that reports free pages to its host that costs a second or two of
// the next phase.
func retainedRSS() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rssMB() - float64(ms.HeapIdle-ms.HeapReleased)/(1<<20)
}

// rssMB reads VmRSS from /proc/self/status.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
