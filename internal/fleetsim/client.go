package fleetsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/aggregate"
	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/trace"
)

// client is one simulated monitored application: a machine-sized memory
// pool, a leak eating it (the paper's TPC-W memory-leak ramp), and the
// bookkeeping the runner needs for exact window accounting.
type client struct {
	id   string
	tmpl *Template
	rng  *randx.Source

	// leakRate is this client's drawn KB/s rate; burst multiplies it
	// while a leak_burst chaos condition is active.
	leakRate   float64
	burst      float64
	burstUntil int

	// Lifecycle. A client arrives at startTick; crashes and flaps make
	// it dark until downTick (crashed restarts the app — Tgen resets —
	// while a flap only drops the connection, the app keeps running).
	startTick int
	active    bool
	crashed   bool
	flapped   bool
	downTick  int

	// Current-run state.
	runStart   int // tick of the run's Tgen zero
	baseUsedKB float64
	usedKB     float64
	swapKB     float64
	pendingRun []trace.Datapoint // datapoints of the run in progress
	restartAt  int               // tick the next run starts after a failure

	// mirror re-runs the serving side's aggregation on exactly the
	// datapoints this client pushed, making "how many windows did this
	// session hand the service" exact by construction.
	mirror *aggregate.LiveAggregator

	// Accounting.
	runs         int // completed (failed) runs
	crashes      int
	flaps        int
	pushed       int   // datapoints pushed
	attempted    int   // windows the aggregation completed
	shed         int   // windows dropped by the shed policy
	delivered    int   // estimates received
	pendingTicks []int // push tick of each accepted, not-yet-delivered window
	everCrashed  bool
	latencySum   int
	latencyMax   int

	// lastEst is the most recent estimate delivered to this client —
	// graded against the observed failure time when the client actually
	// fails, becoming the supervisor's prediction-error feedback.
	lastEst serve.Estimate
	hasEst  bool
}

// step advances the leak model by one tick and returns the datapoint
// the client's monitor samples, plus failed=true when this sample
// crosses the failure condition (free memory and swap both below the
// template's FailFrac — trace.MemoryExhaustion's shape).
func (c *client) step(tick int, tickSec float64) (d trace.Datapoint, failed bool) {
	t := c.tmpl
	leak := c.leakRate * c.burst * tickSec
	if t.NoiseFrac > 0 {
		leak *= 1 + t.NoiseFrac*(2*c.rng.Float64()-1)
	}
	if leak < 0 {
		leak = 0
	}
	c.usedKB += leak
	// Memory pressure spills into swap: the resident set cannot grow
	// past (1-FailFrac)·total, the OS pages the excess out.
	memCap := (1 - t.FailFrac) * t.MemTotalKB
	if c.usedKB > memCap {
		c.swapKB += c.usedKB - memCap
		c.usedKB = memCap
	}
	if c.swapKB > t.SwapTotalKB {
		c.swapKB = t.SwapTotalKB
	}

	d.Tgen = float64(tick-c.runStart) * tickSec
	pressure := c.swapKB / t.SwapTotalKB // 0 = healthy, 1 = exhausted
	noise := func(base, frac float64) float64 {
		if t.NoiseFrac <= 0 {
			return base
		}
		return base * (1 + frac*(2*c.rng.Float64()-1))
	}
	f := &d.Features
	f[trace.MemUsed] = c.usedKB
	f[trace.MemFree] = t.MemTotalKB - c.usedKB
	f[trace.MemShared] = noise(0.01*t.MemTotalKB, t.NoiseFrac)
	// The disk cache shrinks as the leak squeezes it out.
	f[trace.MemBuffers] = noise(0.02*t.MemTotalKB, t.NoiseFrac)
	f[trace.MemCached] = noise(math.Max(0.005, 0.25*(1-c.usedKB/t.MemTotalKB))*t.MemTotalKB, t.NoiseFrac)
	f[trace.SwapUsed] = c.swapKB
	f[trace.SwapFree] = t.SwapTotalKB - c.swapKB
	f[trace.NumThreads] = math.Round(noise(80+40*pressure, t.NoiseFrac))
	// Paging turns CPU time into I/O wait as the ramp progresses.
	iow := noise(2+70*pressure, t.NoiseFrac)
	usr := noise(25*(1-0.6*pressure), t.NoiseFrac)
	sys := noise(8+10*pressure, t.NoiseFrac)
	f[trace.CPUIOWait] = clampPct(iow)
	f[trace.CPUUser] = clampPct(usr)
	f[trace.CPUSystem] = clampPct(sys)
	f[trace.CPUNice] = 0
	f[trace.CPUSteal] = clampPct(noise(0.5, t.NoiseFrac))
	f[trace.CPUIdle] = clampPct(100 - f[trace.CPUUser] - f[trace.CPUSystem] - f[trace.CPUIOWait] - f[trace.CPUSteal])

	// The caps above pin the ramp exactly at the thresholds, so failure
	// is saturation of both: resident memory at its ceiling and swap
	// fully consumed (free-memory and free-swap both at or below the
	// FailFrac floor — the paper's memory-exhaustion condition).
	failed = c.usedKB >= memCap && c.swapKB >= t.SwapTotalKB
	return d, failed
}

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// resetRun starts a fresh run at tick: memory state re-baselined with a
// drawn cold-start footprint, the in-progress run buffer cleared.
func (c *client) resetRun(tick int) {
	t := c.tmpl
	c.runStart = tick
	c.baseUsedKB = 0.2 * t.MemTotalKB * (1 + 0.1*(2*c.rng.Float64()-1))
	c.usedKB = c.baseUsedKB
	c.swapKB = 0
	c.pendingRun = c.pendingRun[:0]
	c.hasEst = false
}

// newFleet expands the scenario's templates into Count clients with
// deterministic ids, largest-remainder weight rounding, per-client leak
// rates, and arrival ticks (spike or linear ramp plus normal cold-start
// jitter). The returned slice is ordered by arrival tick, then id — the
// order the runner starts and steps them in.
func newFleet(sc *Scenario, rng *randx.Source) ([]*client, error) {
	counts, err := apportion(sc.Fleet.Templates, sc.Fleet.Count)
	if err != nil {
		return nil, err
	}
	tickSec := sc.Tick.Seconds()
	var fleet []*client
	for ti := range sc.Fleet.Templates {
		t := &sc.Fleet.Templates[ti]
		for i := 0; i < counts[ti]; i++ {
			id := fmt.Sprintf("%s-%02d", t.Name, i)
			c := &client{
				id:    id,
				tmpl:  t,
				rng:   rng.Fork(uint64(len(fleet)) + 1),
				burst: 1,
			}
			c.leakRate = t.LeakKBPerSec
			if t.LeakJitter > 0 {
				c.leakRate *= 1 + t.LeakJitter*(2*c.rng.Float64()-1)
			}
			if c.leakRate <= 0 {
				c.leakRate = t.LeakKBPerSec
			}
			// Arrival: where on the ramp this client joins.
			var at float64
			if sc.Fleet.Arrival == "linear" && sc.Fleet.Count > 1 {
				at = float64(len(fleet)) / float64(sc.Fleet.Count-1) * sc.Fleet.ArrivalOver.Seconds()
			}
			if j := sc.Fleet.StartJitter.Seconds(); j > 0 {
				at += c.rng.Norm(0, j)
			}
			if at < 0 {
				at = 0
			}
			c.startTick = int(at / tickSec)
			agg, err := aggregate.NewLiveAggregator(aggConfig(sc))
			if err != nil {
				return nil, err
			}
			c.mirror = agg
			fleet = append(fleet, c)
		}
	}
	sort.SliceStable(fleet, func(i, j int) bool {
		if fleet[i].startTick != fleet[j].startTick {
			return fleet[i].startTick < fleet[j].startTick
		}
		return fleet[i].id < fleet[j].id
	})
	return fleet, nil
}

// apportion distributes count instances over the templates
// proportionally to weight, by largest remainder.
func apportion(templates []Template, count int) ([]int, error) {
	var total float64
	for _, t := range templates {
		total += t.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("fleetsim: total template weight must be positive")
	}
	counts := make([]int, len(templates))
	rem := make([]float64, len(templates))
	assigned := 0
	for i, t := range templates {
		exact := float64(count) * t.Weight / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(templates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; assigned < count; k++ {
		counts[order[k%len(order)]]++
		assigned++
	}
	return counts, nil
}

// aggConfig is the aggregation the serving side and the mirrors share.
func aggConfig(sc *Scenario) aggregate.Config {
	return aggregate.Config{
		WindowSec:       sc.Serve.WindowSec,
		IncludeSlopes:   sc.Serve.IncludeSlopes,
		IncludeIntergen: sc.Serve.IncludeIntergen,
	}
}
