package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantileOf(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantileOf(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantileOf(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ->
// [3.5, 13.5, 31.0]; spread = (31.0-3.5)/13.5.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSliceMedian(t *testing.T) {
	const sec = int64(time.Second)
	var samples []sample
	// Five slices of 100 samples with durations 1..100 us; in the third
	// a stall adds 50 ms to its slowest ten.
	for sl := int64(0); sl < 5; sl++ {
		for i := int64(1); i <= 100; i++ {
			d := i * 1000
			if sl == 2 && i > 90 {
				d += 50_000_000
			}
			samples = append(samples, sample{at: sl*sec + i*1000, dur: d})
		}
	}
	// A sixth slice with too few samples to have a percentile.
	samples = append(samples, sample{at: 5 * sec, dur: 1e9}, sample{at: 5*sec + 1, dur: 1e9})

	p95, slices := sliceMedian(samples, sec, 0.95, 20)
	if slices != 5 {
		t.Errorf("used %d slices, want 5 (the sparse one left out)", slices)
	}
	// Per-slice p95 of 1..100 us is 95.05 us; the stalled slice reads
	// 50 ms and the median over slices discards it.
	if want := 95050.0; math.Abs(p95-want) > 1 {
		t.Errorf("slice-median p95 = %v ns, want %v", p95, want)
	}
	// The whole-run percentile does not: ten of 502 samples are stalls.
	var all []float64
	for _, s := range samples {
		all = append(all, float64(s.dur))
	}
	if whole := quantileOf(all, 0.99); whole < 1e7 {
		t.Errorf("whole-run p99 = %v ns, expected it to be set by the stall", whole)
	}
	if v, n := sliceMedian(nil, sec, 0.5, 1); !math.IsNaN(v) || n != 0 {
		t.Errorf("sliceMedian of nothing = %v, %d", v, n)
	}
}

// fakeTime is a clock the pacer's sleeps advance, with a fixed
// overshoot per sleep.
type fakeTime struct {
	now       int64
	overshoot int64
	sleeps    []time.Duration
}

func (f *fakeTime) clock() int64 { return f.now }
func (f *fakeTime) sleep(d time.Duration) {
	f.sleeps = append(f.sleeps, d)
	f.now += int64(d) + f.overshoot
}

func TestPacerDueTimesAndLateness(t *testing.T) {
	ft := &fakeTime{overshoot: 30_000}
	p := newPacer(1000, time.Now()) // one operation per millisecond
	p.clock, p.sleep = ft.clock, ft.sleep

	for i := int64(0); i < 5; i++ {
		due := p.wait(i)
		if want := i * 1_000_000; due != want {
			t.Fatalf("operation %d due at %d, want %d", i, due, want)
		}
		if ft.now < due {
			t.Fatalf("operation %d released at %d, before it was due at %d", i, ft.now, due)
		}
	}
	// Operation 0 was due at once; 1 to 4 each waited one sleep and were
	// released one overshoot late.
	if len(p.late) != 5 {
		t.Fatalf("%d lateness samples, want 5", len(p.late))
	}
	for i, late := range p.late {
		want := int64(30_000)
		if i == 0 {
			want = 0
		}
		if late != want {
			t.Errorf("operation %d: lateness %d, want %d", i, late, want)
		}
	}

	// A stall: the clock jumps 10 ms. The operations that fell due
	// meanwhile are released at once, each timed from its own due time,
	// and the pacer does not sleep until it has caught up.
	ft.now += 10_000_000
	before := len(ft.sleeps)
	for i := int64(5); i < 14; i++ {
		if due := p.wait(i); due != i*1_000_000 {
			t.Fatalf("operation %d due at %d after the stall", i, due)
		}
	}
	if len(ft.sleeps) != before {
		t.Errorf("pacer slept %d times while behind schedule", len(ft.sleeps)-before)
	}
	if late := p.late[len(p.late)-1]; late < 5_000_000 {
		t.Errorf("lateness after a 10 ms stall sampled as %d ns", late)
	}

	// Waits shorter than minSleep are rounded up to it, not spun.
	fast := newPacer(1e6, time.Now())
	ft2 := &fakeTime{}
	fast.clock, fast.sleep = ft2.clock, ft2.sleep
	fast.wait(0)
	fast.wait(1)
	if len(ft2.sleeps) != 1 || ft2.sleeps[0] != minSleep {
		t.Errorf("sleeps %v, want one of %v", ft2.sleeps, minSleep)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A window of 100 with two overlapping children and one that
		// starts before it: covered [10,50] and [0,5] -> self 55.
		{kind: spanWindow, stream: 1, win: 7, start: 100, end: 200},
		{kind: spanPush, parent: spanWindow, stream: 1, seq: 70, win: 7, start: 110, end: 140},
		{kind: spanPush, parent: spanWindow, stream: 1, seq: 71, win: 7, start: 130, end: 150},
		{kind: spanPush, parent: spanWindow, stream: 1, seq: 72, win: 7, start: 90, end: 105},
		// Same window number on another stream: not a child.
		{kind: spanPush, parent: spanWindow, stream: 2, seq: 70, win: 7, start: 110, end: 190},
		// A send whose handler, keyed by datapoint, outlasts it.
		{kind: spanSend, stream: 1, seq: 5, win: 3, start: 1000, end: 1010},
		{kind: spanHandle, parent: spanSend, stream: 1, seq: 5, win: 3, start: 1004, end: 1030},
		// A handler of another datapoint of the same window: not a child.
		{kind: spanHandle, parent: spanSend, stream: 1, seq: 6, win: 3, start: 1000, end: 1010},
	}
	want := []int64{55, 30, 20, 15, 80, 4, 26, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spanNames[spans[i].kind], got[i], want[i])
		}
	}
	stats := summarize(spans)
	if s := stats[spanPush]; s.count != 4 || s.total != 30+20+15+80 {
		t.Errorf("push spans: count %d total %d", s.count, s.total)
	}
}

func TestChainKeepsRecordsInOrder(t *testing.T) {
	a := newArena[closer](4 * chunkRecs)
	var x, y chain[closer]
	x.a, y.a = a, a
	for i := 0; i < 2*chunkRecs; i++ { // interleaved: chunks alternate between the chains
		x.add(closer{due: int64(i)})
		y.add(closer{due: int64(-i)})
	}
	for i := 0; i < 2*chunkRecs; i++ {
		if x.at(i).due != int64(i) || y.at(i).due != int64(-i) {
			t.Fatalf("record %d: %d, %d", i, x.at(i).due, y.at(i).due)
		}
	}
	x.add(closer{}) // the arena is full
	if x.lost != 1 || x.len() != 2*chunkRecs {
		t.Errorf("after overflow: lost %d, len %d", x.lost, x.len())
	}
	if got, want := a.touchedBytes(), int64(5*chunkRecs*16); got != want {
		t.Errorf("touchedBytes = %d, want %d", got, want)
	}
}

// streamDigest hashes the first n datapoints and fail events every
// stream of a freshly opened fleet would send, with the reference
// estimates of the windows they complete.
func streamDigest(t *testing.T, cfg *runConfig, n int) uint64 {
	t.Helper()
	in, err := newInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := setupServing(kindChurn, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	ref := newReference(in.replay, h.deps[:])
	sum := fnv.New64a()
	for g := range h.streams {
		for _, slot := range h.rounds[g][:200] {
			st := h.streams[g][slot]
			for i := 0; i < n; i++ {
				run := in.replay[st.gen.run]
				binary.Write(sum, binary.LittleEndian, run.dps[st.gen.pos])
				if st.gen.pos++; st.gen.pos == len(run.dps) {
					binary.Write(sum, binary.LittleEndian, run.failTime)
					binary.Write(sum, binary.LittleEndian, ref.rttf[0][st.gen.run])
					binary.Write(sum, binary.LittleEndian, ref.rttf[1][st.gen.run])
					st.gen.nextRun(len(in.replay))
				}
			}
		}
	}
	return sum.Sum64()
}

func TestGeneratorDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three deployments")
	}
	a := streamDigest(t, &runConfig{seed: 7, scale: 1, smoke: true}, 3000)
	b := streamDigest(t, &runConfig{seed: 7, scale: 1, smoke: true}, 3000)
	c := streamDigest(t, &runConfig{seed: 8, scale: 1, smoke: true}, 3000)
	if a != b {
		t.Errorf("same seed, different streams: %x vs %x", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same stream: %x", a)
	}
}

// TestCorruptReferenceFails shows the check is live: one reference
// estimate off by one part in a million fails the run.
func TestCorruptReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a serving phase")
	}
	cfg := &runConfig{seed: 3, seconds: 1, scale: 0.1, smoke: true}
	in, err := newInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := setupServing(kindFleet, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.ref = newReference(in.replay, h.deps[:])
	spec := phaseSpec{rate: fleetRate * cfg.scale, duration: time.Second}
	if out := h.runPhase(spec); out.failed != 0 || out.windows == 0 {
		t.Fatalf("clean phase: %d failed of %d windows: %v", out.failed, out.windows, out.why)
	}
	// The next window the first stream completes: the checker's cursor
	// says which run and window that is.
	st := h.streams[0][0]
	if st.chk.pos == in.replay[st.chk.run].windows {
		st.chk.nextRun(len(in.replay))
	}
	h.ref.rttf[0][st.chk.run][st.chk.pos] *= 1 + 1e-6
	if out := h.runPhase(spec); out.failed == 0 {
		t.Errorf("corrupted reference, yet none of %d windows failed", out.windows)
	}
}

// TestSmoke runs every workload for a second at a tenth of its rate,
// half of it untraced and half traced: nothing may fail and every
// declared metric must be printed. It keeps the benchmark compiling and running against the
// layers it calls.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{workload: w.name, seed: 11, seconds: 0.5, trace: traced, scale: 0.1, smoke: true}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			res.complete(specs, !traced)
			var buf bytes.Buffer
			if err := res.print(&buf, specs); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d failed of %d:\n%s", w.name, traced, res.Failed, res.Attempted, buf.String())
			}
			for _, s := range specs {
				if !strings.Contains(buf.String(), "\n"+s.Name+" ") && !strings.HasPrefix(buf.String(), s.Name+" ") {
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, s.Name)
				}
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.name, traced, len(last.Metrics), len(specs))
			}
			if traced {
				checkBypass(t, w.name, res)
			}
		}
	}
}

// checkBypass asserts that each workload leaves alone the layer it is
// meant to leave alone.
func checkBypass(t *testing.T, name string, res *result) {
	t.Helper()
	switch name {
	case "fleet-serve", "fleet-churn":
		for m, v := range res.Metrics {
			if strings.HasPrefix(m, "monitor.") && v.Value != 0 {
				t.Errorf("%s: %s = %v, the workload should bypass the monitor", name, m, v.Value)
			}
		}
	case "wire-ingest":
		if v := res.Metrics["serve.push_ns_per_dp"].Value; v != 0 {
			t.Errorf("wire-ingest: serve.push_ns_per_dp = %v, datapoints should arrive through HandleDatapoint only", v)
		}
		if v := res.Metrics["monitor.dropped_dp"].Value; v != 0 {
			t.Errorf("wire-ingest: %v datapoints dropped", v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the declarations in this
// package in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q (or their reasons differ)", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, declared, have []metricSpec) {
		if len(declared) != len(have) {
			t.Errorf("%s: %d declared, %d implemented", kind, len(declared), len(have))
			return
		}
		for i := range have {
			if declared[i] != have[i] {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, declared[i], have[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 95, 160, 60, 110, 100, 140, 80, 120}
	for _, c := range []struct {
		name      string
		spec      metricSpec
		base, new []float64
		want      string
	}{
		{"same", lower, steady, steady, "within bound"},
		{"5 % slower", lower, steady, scale(steady, 1.05), "within bound"},
		{"20 % slower", lower, steady, scale(steady, 1.20), "REGRESSION"},
		{"20 % faster", lower, steady, scale(steady, 0.80), "better"},
		{"throughput down 20 %", higher, steady, scale(steady, 0.80), "REGRESSION"},
		{"throughput up 20 %", higher, steady, scale(steady, 1.20), "better"},
		// Runs that disagree among themselves by more than the bound
		// settle nothing, whatever the medians say...
		{"noisy base", lower, noisy, steady, "unresolved"},
		{"noisy new", lower, steady, noisy, "unresolved"},
		// ...unless every new run beats every base run.
		{"noisy but disjoint", lower, scale(noisy, 10), steady, "better"},
	} {
		if got, _ := verdict(c.spec, c.base, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
