package fleetsim

import (
	"os"
	"reflect"
	"testing"
)

func loadScenario(t *testing.T, path string) *Scenario {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestSmokeScenarioDeterministicReplay pins the replay contract on the
// committed CI scenario: two runs of the same scenario and seed produce
// identical event logs and assertion outcomes, and the scenario passes.
func TestSmokeScenarioDeterministicReplay(t *testing.T) {
	sc := loadScenario(t, "../../examples/fleetsim/scenarios/smoke.yaml")
	rep1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Passed {
		rep1.WriteText(os.Stderr)
		t.Fatal("smoke scenario failed")
	}
	if rep1.Fingerprint() != rep2.Fingerprint() {
		t.Fatal("replay diverged: two runs of the same scenario+seed produced different event logs")
	}
	// The log must carry every chaos kind the scenario schedules.
	kinds := map[string]bool{}
	for _, e := range rep1.Log {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"boot", "start", "fail", "restart", "retrain", "chaos", "assert", "end"} {
		if !kinds[k] {
			t.Errorf("event log has no %q entries", k)
		}
	}
	if rep1.Crashes == 0 || rep1.Flaps == 0 || rep1.ShedWindows == 0 {
		t.Errorf("chaos did not bite: crashes=%d flaps=%d shed=%d", rep1.Crashes, rep1.Flaps, rep1.ShedWindows)
	}
}

// TestDifferentSeedsDiverge guards against the seed being ignored: a
// different seed must change the schedule.
func TestDifferentSeedsDiverge(t *testing.T) {
	sc := loadScenario(t, "../../examples/fleetsim/scenarios/smoke.yaml")
	rep1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 43
	rep2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Fingerprint() == rep2.Fingerprint() {
		t.Fatal("seeds 42 and 43 produced identical event logs — the seed is not wired through")
	}
}

// TestRedrawChurnScenario is the committed SplitRedrawn-under-churn
// coverage: a tiny sliding window retrained after every completed run
// slides until the run-wise split starves and the redraw valve fires;
// every redraw is followed by a from-scratch refit parity check at
// 1e-8.
func TestRedrawChurnScenario(t *testing.T) {
	sc := loadScenario(t, "testdata/redraw-churn.yaml")
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		rep.WriteText(os.Stderr)
		t.Fatal("redraw-churn scenario failed")
	}
	if rep.Redraws == 0 {
		t.Fatal("no split redraw fired — the scenario no longer exercises the starvation valve")
	}
	if rep.ParityChecks < rep.Redraws {
		t.Fatalf("%d parity checks for %d redraws — verify_redraw did not run on every redraw", rep.ParityChecks, rep.Redraws)
	}
	if len(rep.ParityFailures) > 0 {
		t.Fatalf("redraw parity failures: %v", rep.ParityFailures)
	}
	if rep.LostWindows != 0 {
		t.Fatalf("%d windows lost without any crash chaos", rep.LostWindows)
	}
}

// crashShedScenario is the acceptance-criteria scenario: crash-restart
// chaos with a shed policy. It must end with zero lost windows for the
// surviving (never-crashed) sessions and every shed window attributed
// to a below-floor priority.
const crashShedScenario = `
name: crash-shed
seed: 99
duration: 200s
tick: 1s
serve:
  shards: 2
  window_sec: 10
  flush_every: 5
  shed:
    max_queue_depth: 3
    min_priority: 5
train:
  runs: 4
fleet:
  count: 6
  arrival: spike
  templates:
    - name: vip
      weight: 1
      priority: 5
      mem_total_kb: 131072
      swap_total_kb: 65536
      leak_kb_per_sec: 3000
    - name: low
      weight: 1
      priority: 2
      mem_total_kb: 131072
      swap_total_kb: 65536
      leak_kb_per_sec: 3500
events:
  - at: 50s
    action: crash_restart
    clients: 2
    down: 12s
  - at: 90s
    action: slow_consumer
    for: 25s
  - at: 140s
    action: crash_restart
    clients: 1
    down: 8s
assertions:
  - no_lost_windows
  - shed_only_below_floor
  - min_shed: 1
  - min_completed_runs: 4
`

func TestCrashAccountingAndShedAttribution(t *testing.T) {
	rep, err := RunData([]byte(crashShedScenario))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		rep.WriteText(os.Stderr)
		t.Fatal("crash-shed scenario failed")
	}
	if rep.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3", rep.Crashes)
	}
	if rep.LostWindows != 0 {
		t.Fatalf("LostWindows = %d, want 0 for surviving sessions", rep.LostWindows)
	}
	if rep.ShedWindows == 0 {
		t.Fatal("shed policy never fired under the slow consumer")
	}
	var shedSum uint64
	for prio, n := range rep.ShedByPriority {
		if prio >= 5 {
			t.Fatalf("priority %d (at/above the floor) shed %d windows", prio, n)
		}
		shedSum += n
	}
	if shedSum != rep.ShedWindows {
		t.Fatalf("ShedByPriority sums to %d, ShedWindows is %d", shedSum, rep.ShedWindows)
	}
	// Per-session: survivors deliver everything they handed over; the
	// vip sessions at the floor never shed a window.
	for _, s := range rep.Sessions {
		if s.Crashes == 0 && s.Lost != 0 {
			t.Fatalf("never-crashed session %s lost %d windows", s.ID, s.Lost)
		}
		if s.Priority >= 5 && s.Shed != 0 {
			t.Fatalf("floor-priority session %s shed %d windows", s.ID, s.Shed)
		}
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		weights []float64
		count   int
		want    []int
	}{
		{[]float64{3, 1}, 8, []int{6, 2}},
		{[]float64{1, 1, 1}, 4, []int{2, 1, 1}},
		{[]float64{2, 1}, 1, []int{1, 0}},
		{[]float64{1, 2}, 3, []int{1, 2}},
	}
	for _, c := range cases {
		templates := make([]Template, len(c.weights))
		for i, w := range c.weights {
			templates[i].Weight = w
		}
		got, err := apportion(templates, c.count)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("apportion(%v, %d) = %v, want %v", c.weights, c.count, got, c.want)
		}
	}
}

// TestRegistryOutageScenarioDeterministicReplay pins the committed
// registry-outage CI scenario: the stale-while-revalidate cycle
// (outage → stale-serving → recovery → one-poll reconvergence) must
// pass, replay byte-identically, and leave its transitions in the
// event log.
func TestRegistryOutageScenarioDeterministicReplay(t *testing.T) {
	sc := loadScenario(t, "../../examples/fleetsim/scenarios/registry-outage.yaml")
	rep1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Passed {
		rep1.WriteText(os.Stderr)
		t.Fatal("registry-outage scenario failed")
	}
	if rep1.Fingerprint() != rep2.Fingerprint() {
		t.Fatal("replay diverged: two runs of the same scenario+seed produced different event logs")
	}
	kinds := map[string]bool{}
	for _, e := range rep1.Log {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"publish", "refresh", "stale", "fresh", "chaos"} {
		if !kinds[k] {
			t.Errorf("event log has no %q entries", k)
		}
	}
	if rep1.Publishes == 0 {
		t.Error("no retrain was published through the registry")
	}
	if rep1.FinallyStale {
		t.Error("model source still stale after the registry recovered")
	}
	if rep1.LatencyP99Ticks == 0 || len(rep1.LatencyHistogram) == 0 {
		t.Errorf("latency histogram not populated: p99=%d buckets=%d",
			rep1.LatencyP99Ticks, len(rep1.LatencyHistogram))
	}
	var total int
	for _, b := range rep1.LatencyHistogram {
		total += b.Count
	}
	if uint64(total) != rep1.Predictions {
		t.Errorf("histogram counts sum to %d, want %d (one sample per delivered window)",
			total, rep1.Predictions)
	}
}
