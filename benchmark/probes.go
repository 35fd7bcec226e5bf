package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/ml"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/trace"
)

// A layer probe replays the workload's inputs through one layer's
// public function, alone, so that the layer's cost is known without the
// others' around it. Probes run after the measured phases.

// probeFor repeats fn, which reports how many operations it did, until
// at least minDur has passed and returns ns per operation.
func probeFor(minDur time.Duration, fn func() int) float64 {
	var ops int
	start := time.Now()
	for time.Since(start) < minDur {
		ops += fn()
	}
	return float64(time.Since(start)) / float64(ops)
}

type monitorProbe struct {
	nsPerDp, allocsPerDp, retainedPerDp float64
}

type countingHandler struct{ n atomic.Int64 }

func (c *countingHandler) HandleDatapoint(string, trace.Datapoint) { c.n.Add(1) }
func (c *countingHandler) HandleFail(string, float64)              {}

// probeMonitor sends replay runs from one client to a server whose
// stream handler does nothing: what the wire costs a datapoint in CPU
// time (client and server work side by side, so wall time would count
// half of it), allocations and — the server keeps every datapoint —
// retained bytes.
func probeMonitor(cfg *runConfig, in *inputs) (monitorProbe, error) {
	want := 40_000
	if cfg.smoke {
		want /= 10
	}
	var p monitorProbe
	h := &countingHandler{}
	srv, err := monitor.NewServer("127.0.0.1:0", monitor.WithStream(h))
	if err != nil {
		return p, err
	}
	defer srv.Close()
	cl, err := monitor.Dial(srv.Addr(), "probe")
	if err != nil {
		return p, err
	}
	defer cl.Close()

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	sent := 0
	for r := 0; sent < want; r = (r + 1) % len(in.replay) {
		run := in.replay[r]
		for k := range run.dps {
			if err := cl.SendDatapoint(&run.dps[k]); err != nil {
				return p, err
			}
		}
		if err := cl.SendFail(run.failTime); err != nil {
			return p, err
		}
		sent += len(run.dps)
	}
	for deadline := time.Now().Add(10 * time.Second); h.n.Load() < int64(sent); {
		if time.Now().After(deadline) {
			return p, fmt.Errorf("server handled %d of %d datapoints", h.n.Load(), sent)
		}
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	p.nsPerDp = float64(elapsed) / float64(sent)
	p.allocsPerDp = float64(m1.Mallocs-m0.Mallocs) / float64(sent)
	p.retainedPerDp = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / float64(sent)
	return p, nil
}

// wireBytes is the mean size of a datapoint's JSON line, computed from
// the message the client encodes (the probe does not read the socket).
func wireBytes(in *inputs) float64 {
	run := in.replay[0]
	var total int
	for k := range run.dps {
		m := monitor.DatapointMessage(&run.dps[k])
		line, err := json.Marshal(&m)
		if err != nil {
			return 0
		}
		total += len(line) + 1
	}
	return float64(total) / float64(len(run.dps))
}

type aggregateProbe struct {
	nsPerDp, allocsPerWindow float64
}

// probeAggregate pushes replay runs through one LiveAggregator.
func probeAggregate(cfg *runConfig, in *inputs) aggregateProbe {
	la, _ := aggregate.NewLiveAggregator(in.agg)
	var windows int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := 0
	ns := probeFor(cfg.probeDur(300*time.Millisecond), func() int {
		run := in.replay[r%len(in.replay)]
		r++
		for k := range run.dps {
			if _, _, ok := la.Push(run.dps[k]); ok {
				windows++
			}
		}
		if _, _, ok := la.Flush(); ok {
			windows++
		}
		la.Reset()
		return len(run.dps)
	})
	runtime.ReadMemStats(&m1)
	return aggregateProbe{ns, float64(m1.Mallocs-m0.Mallocs) / float64(windows)}
}

// probeFlush times the dispatch path alone: a service under manual
// dispatch (the only serve knob the benchmark ever sets, and only
// here), windows queued by 64 sessions, then Flush on the clock —
// take, project, PredictBatch, deliver. Returns ns per window.
func probeFlush(cfg *runConfig, h *harness, in *inputs) (float64, error) {
	const sessions, perSession = 64, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered int
	svc, err := serve.New(ctx,
		serve.WithDeployment(h.deps[0]),
		serve.WithEstimateFunc(func(serve.Estimate) { delivered++ }),
		serve.WithManualDispatch(),
	)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	type feeder struct {
		ss  *serve.Session
		cur cursor
	}
	feed := make([]feeder, sessions)
	for i := range feed {
		if feed[i].ss, err = svc.StartSession(fmt.Sprintf("probe-%d", i)); err != nil {
			return 0, err
		}
		feed[i].cur = cursor{rng: uint64(i)*0x9E3779B97F4A7C15 + 1}
		feed[i].cur.nextRun(len(in.replay))
	}
	var busy time.Duration
	var windows int
	for busy < cfg.probeDur(300*time.Millisecond) {
		for i := range feed {
			f := &feed[i]
			for closed := 0; closed < perSession; {
				run := in.replay[f.cur.run]
				if f.cur.pos == len(run.dps) {
					f.cur.nextRun(len(in.replay))
					if err := f.ss.EndRun(); err != nil {
						return 0, err
					}
					closed++
					continue
				}
				if run.closes[f.cur.pos] {
					closed++
				}
				if err := f.ss.Push(run.dps[f.cur.pos]); err != nil {
					return 0, err
				}
				f.cur.pos++
			}
		}
		before := delivered
		t0 := time.Now()
		svc.Flush()
		busy += time.Since(t0)
		windows += delivered - before
	}
	if windows == 0 {
		return 0, fmt.Errorf("flush probe delivered nothing")
	}
	return float64(busy) / float64(windows), nil
}

// predictProbes times ml.PredictAll on the served model at batch sizes
// 1, 16 and 256, on projected reference rows.
func predictProbes(cfg *runConfig, res *result, dep *serve.Deployment, ref *reference) {
	proj := projector(dep)
	var X [][]float64
	for _, run := range ref.runs {
		for _, row := range run.rows {
			X = append(X, proj(row))
		}
		if len(X) >= 1024 {
			break
		}
	}
	for _, b := range []int{1, 16, 256} {
		at := 0
		ns := probeFor(cfg.probeDur(150*time.Millisecond), func() int {
			if at+b > len(X) {
				at = 0
			}
			sink = ml.PredictAll(dep.Model, X[at:at+b])
			at += b
			return b
		})
		res.set(fmt.Sprintf("ml.predict_ns_per_row_b%d", b), ns)
	}
}

// sink keeps probe results alive.
var sink []float64
