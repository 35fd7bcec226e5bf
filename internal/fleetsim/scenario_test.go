package fleetsim

import (
	"strings"
	"testing"
	"time"
)

const minimalScenario = `
name: minimal
seed: 5
duration: 60s
fleet:
  count: 2
  templates:
    - name: only
      leak_kb_per_sec: 3000
`

func TestParseScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario([]byte(minimalScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "minimal" || sc.Seed != 5 {
		t.Fatalf("header = %q/%d", sc.Name, sc.Seed)
	}
	if sc.Tick != time.Second {
		t.Errorf("default tick = %v, want 1s", sc.Tick)
	}
	if sc.Serve.Shards != 2 || sc.Serve.WindowSec != 10 || sc.Serve.FlushEvery != 5 {
		t.Errorf("serve defaults = %+v", sc.Serve)
	}
	if sc.Train.Runs != 4 || len(sc.Train.Models) != 1 || sc.Train.Models[0] != "linear" {
		t.Errorf("train defaults = %+v", sc.Train)
	}
	if sc.Fleet.Arrival != "spike" {
		t.Errorf("default arrival = %q, want spike", sc.Fleet.Arrival)
	}
	tmpl := sc.Fleet.Templates[0]
	if tmpl.MemTotalKB != 4<<20 || tmpl.SwapTotalKB != 2<<20 || tmpl.FailFrac != 0.02 {
		t.Errorf("template defaults = %+v", tmpl)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"no fleet", "name: x\nduration: 10s\n", "a fleet block is required"},
		{"no templates", "duration: 10s\nfleet:\n  count: 1\n", "at least one template is required"},
		{"no duration", "fleet:\n  count: 1\n  templates:\n    - leak_kb_per_sec: 100\n", "duration must be positive"},
		{
			"unknown key",
			minimalScenario + "sered:\n  shards: 9\n",
			`unknown key "sered"`,
		},
		{
			"unknown action",
			minimalScenario + "events:\n  - at: 5s\n    action: meteor_strike\n",
			`unknown action "meteor_strike"`,
		},
		{
			"unknown check",
			minimalScenario + "assertions:\n  - min_happiness: 3\n",
			`unknown check "min_happiness"`,
		},
		{
			"unknown model",
			minimalScenario + "train:\n  models:\n    - gpt\n",
			`unknown model "gpt"`,
		},
		{
			"assert without checks",
			minimalScenario + "events:\n  - at: 5s\n    action: assert\n",
			"assert event without checks",
		},
		{
			"event out of range",
			minimalScenario + "events:\n  - at: 120s\n    action: flap\n",
			"outside the scenario duration",
		},
		{
			"bad arrival",
			"duration: 10s\nfleet:\n  count: 1\n  arrival: teleport\n  templates:\n    - leak_kb_per_sec: 100\n",
			`must be "spike" or "linear"`,
		},
		{
			"linear without window",
			"duration: 10s\nfleet:\n  count: 1\n  arrival: linear\n  templates:\n    - leak_kb_per_sec: 100\n",
			"arrival_over must be positive",
		},
		{
			"no leak",
			"duration: 10s\nfleet:\n  count: 1\n  templates:\n    - name: idle\n",
			"leak_kb_per_sec must be positive",
		},
		{
			"train template missing",
			minimalScenario + "train:\n  template: nosuch\n",
			`"nosuch" names no fleet template`,
		},
		// Keys and checks that configured the deleted dispatch knobs and
		// placement layer are rejected loudly, not ignored.
		{
			"serve.coalesce removed",
			minimalScenario + "serve:\n  coalesce:\n    min_batch: 16\n",
			`unknown key "coalesce"`,
		},
		{
			"serve.placement removed",
			minimalScenario + "serve:\n  placement:\n    policy: load\n",
			`unknown key "placement"`,
		},
		{
			"supervisor.skew_trigger removed",
			minimalScenario + "supervisor:\n  error_trigger: 0.5\n  skew_trigger: 1.5\n",
			`unknown key "skew_trigger"`,
		},
		{
			"supervisor.skew_sustain removed",
			minimalScenario + "supervisor:\n  error_trigger: 0.5\n  skew_sustain: 2\n",
			`unknown key "skew_sustain"`,
		},
		{
			"min_migrations removed",
			minimalScenario + "assertions:\n  - min_migrations: 2\n",
			`unknown check "min_migrations"`,
		},
		{
			"max_shard_skew removed",
			minimalScenario + "assertions:\n  - max_shard_skew: 1.4\n",
			`unknown check "max_shard_skew"`,
		},
		{
			"template rate removed",
			"duration: 10s\nfleet:\n  count: 1\n  templates:\n    - leak_kb_per_sec: 100\n      rate: 10\n",
			`unknown key "rate"`,
		},
		{
			"bad duration string",
			"duration: soon\nfleet:\n  count: 1\n  templates:\n    - leak_kb_per_sec: 100\n",
			`bad duration "soon"`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(c.doc))
			if err == nil {
				t.Fatalf("scenario accepted, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestParseScenarioAccumulatesErrors pins the all-at-once error report.
func TestParseScenarioAccumulatesErrors(t *testing.T) {
	doc := "duration: -5s\nfleet:\n  count: 0\n  templates:\n    - name: t\n"
	_, err := ParseScenario([]byte(doc))
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"duration must be positive", "count must be at least 1", "leak_kb_per_sec"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}

func TestParseScenarioSortsEvents(t *testing.T) {
	doc := minimalScenario + `events:
  - at: 30s
    action: flap
  - at: 10s
    action: slow_consumer
    for: 5s
`
	sc, err := ParseScenario([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 2 || sc.Events[0].Action != "slow_consumer" || sc.Events[1].Action != "flap" {
		t.Fatalf("events not sorted by At: %+v", sc.Events)
	}
}
