package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestShardedServingStress is the concurrency gate for the sharded
// dispatch path: ≥10⁴ sessions spread over 8 shards push windows from
// concurrent producers, with an atomic model hot-swap mid-stream. It
// asserts the shard hash spreads the session population, that without
// a ShedPolicy not a single completed window is dropped (exact
// prediction accounting), per-session version monotonicity, and that
// no window enqueued after the swap returned was predicted by the
// stale model — the PR 3 freshness invariant re-proven per shard. Run
// under -race.
func TestShardedServingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		numShards     = 8
		numSessions   = 10_000
		phase1Windows = 2
		phase2Windows = 2
		producers     = 16
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type seen struct {
		mu     sync.Mutex
		events []Estimate
	}
	bySession := make([]seen, numSessions)
	est := func(e Estimate) {
		var idx int
		fmt.Sscanf(e.SessionID, "s-%d", &idx)
		s := &bySession[idx]
		s.mu.Lock()
		s.events = append(s.events, e)
		s.mu.Unlock()
	}

	svc, err := New(ctx,
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(numShards),
		WithEstimateFunc(est),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Stats().Shards; got != numShards {
		t.Fatalf("stats shards %d, want %d", got, numShards)
	}

	sessions := make([]*Session, numSessions)
	for i := range sessions {
		ss, err := svc.StartSession(fmt.Sprintf("s-%05d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = ss
	}

	// Shard balance: the id hash must spread 10⁴ ids so no shard holds
	// more than twice (or less than half) its fair share — otherwise
	// "sharded" dispatch degenerates back to one queue. The histogram
	// comes from the exported routing (testutil.Spread), then a spot
	// check confirms the session maps agree with it.
	ids := make([]string, numSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%05d", i)
	}
	fair := numSessions / numShards
	for i, n := range testutil.Spread(HashPlacer{}.Place, ids, numShards) {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("shard %d placed %d sessions, fair share is %d", i, n, fair)
		}
		sh := svc.shards[i]
		sh.mu.Lock()
		held := len(sh.sessions)
		sh.mu.Unlock()
		if held != n {
			t.Fatalf("shard %d holds %d sessions but the hash routed %d there", i, held, n)
		}
	}

	// push completes exactly one aggregation window per call after the
	// first: tgen strides one full window per step.
	var pushed atomic.Uint64
	phase := func(lo, hi int) {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < numSessions; i += producers {
					for w := lo; w < hi; w++ {
						if err := sessions[i].Push(dp(float64(w*10+1), float64(i%97))); err != nil {
							t.Errorf("session %d window %d: %v", i, w, err)
							return
						}
						if w > lo || lo > 0 {
							// every push but the very first of the run
							// completed the preceding window
							pushed.Add(1)
						}
					}
				}
			}(p)
		}
		wg.Wait()
	}

	// Phase 1 under v1: windows 0..phase1Windows-1 complete.
	phase(0, phase1Windows+1)
	waitFor(t, func() bool { return svc.Stats().Predictions >= uint64(numSessions*phase1Windows) })

	swapVer, err := svc.Deploy(&Deployment{Model: &stubModel{base: 1000}, Name: "v2", Aggregation: rawAgg()})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: every window here is enqueued strictly after Deploy
	// returned, so every estimate must carry v2 on whichever shard it
	// landed.
	phase(phase1Windows+1, phase1Windows+1+phase2Windows)
	const perSession = phase1Windows + phase2Windows
	waitFor(t, func() bool { return svc.Stats().Predictions >= uint64(numSessions*perSession) })

	if got, want := svc.Stats().Predictions, uint64(numSessions*perSession); got != want {
		t.Fatalf("%d predictions, want exactly %d", got, want)
	}
	if got, want := pushed.Load(), uint64(numSessions*perSession); got != want {
		t.Fatalf("accounting bug in the test driver: pushed %d, want %d", got, want)
	}
	for i := range bySession {
		s := &bySession[i]
		s.mu.Lock()
		events := s.events
		s.mu.Unlock()
		if len(events) != perSession {
			t.Fatalf("session %d: %d estimates, want %d", i, len(events), perSession)
		}
		prev := uint64(0)
		for j, e := range events {
			if e.ModelVersion < prev {
				t.Fatalf("session %d: version went backwards at estimate %d", i, j)
			}
			prev = e.ModelVersion
			if j >= phase1Windows && e.ModelVersion != swapVer {
				t.Fatalf("session %d: estimate %d predicted by stale model v%d after swap to v%d",
					i, j, e.ModelVersion, swapVer)
			}
		}
	}

	st := svc.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
	if st.ShedWindows != 0 {
		t.Fatalf("%d windows shed with no ShedPolicy", st.ShedWindows)
	}
	if st.Sessions != numSessions {
		t.Fatalf("stats sessions %d, want %d", st.Sessions, numSessions)
	}

	// Drain-on-Close still holds with N dispatchers: windows completed
	// just before cancellation are predicted, not dropped.
	for i := 0; i < producers; i++ {
		if err := sessions[i].Push(dp(float64((perSession+1)*10+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := svc.Stats().Predictions, uint64(numSessions*perSession+producers); got != want {
		t.Fatalf("after close: %d predictions, want %d (shutdown dropped completed windows)", got, want)
	}
}

// TestShedPolicyExactAccounting pins the load shedder's contract:
// under a ShedPolicy every completed window is either predicted
// exactly once or counted in Stats.ShedWindows exactly once (the sets
// partition), sessions at or above the priority floor are never shed,
// and with the queue held over the threshold the sheddable sessions
// actually lose windows. Run under -race.
func TestShedPolicyExactAccounting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const (
		numSessions = 64
		windows     = 40
	)
	var estimates atomic.Uint64
	svc, err := New(ctx,
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(4),
		// Tiny per-shard depth + a stalled batch keep the queue over
		// the threshold while producers are faster than dispatch.
		WithShedPolicy(ShedPolicy{MaxQueueDepth: 2, MinPriority: 1}),
		WithBatchFailpoint(func(int, int) { time.Sleep(200 * time.Microsecond) }),
		WithEstimateFunc(func(Estimate) { estimates.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var queued, shed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < numSessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prio := c % 2 // odd sessions sit at the floor: never shed
			ss, err := svc.StartSession(fmt.Sprintf("c-%03d", c), WithSessionPriority(prio))
			if err != nil {
				t.Error(err)
				return
			}
			for w := 0; w <= windows; w++ {
				err := ss.Push(dp(float64(w*10+1), float64(c)))
				switch {
				case err == nil:
					if w > 0 {
						queued.Add(1)
					}
				case errors.Is(err, ErrWindowShed):
					if prio >= 1 {
						t.Errorf("session %d at the priority floor was shed", c)
						return
					}
					shed.Add(1)
				default:
					t.Errorf("session %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	svc.Flush()

	st := svc.Stats()
	if st.ShedWindows != shed.Load() {
		t.Fatalf("stats ShedWindows %d, callers saw %d ErrWindowShed", st.ShedWindows, shed.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("no window was ever shed — the overload went unexercised")
	}
	if got, want := estimates.Load(), queued.Load(); got != want {
		t.Fatalf("%d estimates for %d accepted windows (shed ones must not be predicted, accepted ones never dropped)", got, want)
	}
	if st.Predictions != estimates.Load() {
		t.Fatalf("stats predictions %d vs %d deliveries", st.Predictions, estimates.Load())
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

// TestShardedSweepEviction re-proves the PR 4 eviction invariants on
// the sharded session map: an aggressive TTL sweep walking one shard
// at a time still never drops a queued window, never double-delivers
// an evict snapshot, and keeps the eviction counter equal to the hook
// deliveries. Run under -race.
func TestShardedSweepEviction(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const clients = 48
	const windows = 4
	var estimates, hookCalls atomic.Uint64
	svc, err := New(ctx,
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(4),
		WithSessionTTL(2*time.Millisecond),
		WithSessionEvictFunc(func(EvictedSession) { hookCalls.Add(1) }),
		WithEstimateFunc(func(Estimate) { estimates.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	var pushed atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("c-%d", c)
			done := 0
			tg := 0.0
			for done < windows {
				ss, err := svc.StartSession(id)
				if errors.Is(err, ErrDuplicateSession) {
					var ok bool
					if ss, ok = svc.Session(id); !ok {
						continue
					}
				} else if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if ss.Push(dp(tg, float64(c))) != nil {
					continue // evicted mid-window: start over
				}
				tg += 10
				if ss.Push(dp(tg, float64(c))) != nil {
					continue
				}
				pushed.Add(1)
				done++
				if done%2 == 0 {
					time.Sleep(3 * time.Millisecond) // let the sweep catch some
				}
			}
		}(c)
	}
	wg.Wait()

	waitFor(t, func() bool { return estimates.Load() >= pushed.Load() })
	time.Sleep(20 * time.Millisecond) // would catch duplicates arriving late
	if got, want := estimates.Load(), pushed.Load(); got != want {
		t.Fatalf("%d estimates for %d accepted windows", got, want)
	}
	st := svc.Stats()
	if st.EvictedSessions != hookCalls.Load() {
		t.Fatalf("evicted counter %d vs %d hook deliveries", st.EvictedSessions, hookCalls.Load())
	}
	if st.EvictedSessions == 0 {
		t.Fatal("aggressive TTL evicted nothing — the race went unexercised")
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

// TestHashPlacerPinned pins the routing bit-for-bit: the FNV-1a
// constants and reduction must never drift, or every committed
// scenario fingerprint and shard-targeted test id breaks.
func TestHashPlacerPinned(t *testing.T) {
	legacy := func(id string, shards int) int {
		const (
			offset32 = 2166136261
			prime32  = 16777619
		)
		h := uint32(offset32)
		for i := 0; i < len(id); i++ {
			h = (h ^ uint32(id[i])) * prime32
		}
		return int(h % uint32(shards))
	}
	p := HashPlacer{}
	for shards := 1; shards <= 16; shards++ {
		for i := 0; i < 500; i++ {
			id := fmt.Sprintf("s-%05d", i)
			if got, want := p.Place(id, shards), legacy(id, shards); got != want {
				t.Fatalf("Place(%q, %d) = %d, legacy FNV path gives %d", id, shards, got, want)
			}
		}
	}
}
