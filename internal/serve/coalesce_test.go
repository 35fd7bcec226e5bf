package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// idsOnShard returns n distinct session ids that the service routes
// onto shard idx — the deterministic way to stage a chosen per-shard
// load.
func idsOnShard(svc *Service, idx, n int) []string {
	return testutil.IDsOnShard(HashPlacer{}.Place, len(svc.shards), idx, n)
}

// batchLog records the batchFailpoint call sequence: which shard
// dispatched, how many windows it merged.
type batchLog struct {
	mu    sync.Mutex
	calls [][2]int
}

func (l *batchLog) hook(shard, size int) {
	l.mu.Lock()
	l.calls = append(l.calls, [2]int{shard, size})
	l.mu.Unlock()
}

func (l *batchLog) snapshot() [][2]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][2]int(nil), l.calls...)
}

// TestCoalesceLightLoadMerges pins the light-load regime: with a few
// windows scattered across many shards and the fleet total below
// coalesceMin, one Flush produces exactly ONE PredictBatch call holding
// every window — the first non-empty shard steals all its neighbors'
// queues — and the coalesce counters account for the stolen windows
// exactly.
func TestCoalesceLightLoadMerges(t *testing.T) {
	const shards = 8
	const sessions = coalesceMin - 4
	log := &batchLog{}
	var delivered atomic.Uint64
	svc, err := New(context.Background(),
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(shards),
		WithManualDispatch(),
		WithBatchFailpoint(log.hook),
		WithEstimateFunc(func(Estimate) { delivered.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// One completed window per session, spread over the shards by the
	// id hash.
	perShard := make([]int, shards)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s-%03d", i)
		ss, err := svc.StartSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Push(dp(1, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := ss.Push(dp(11, float64(i))); err != nil {
			t.Fatal(err)
		}
		perShard[svc.shardIndex(svc.shardFor(id))]++
	}

	svc.Flush()

	calls := log.snapshot()
	if len(calls) != 1 {
		t.Fatalf("light load flushed in %d batches (%v), want exactly 1 merged batch", len(calls), calls)
	}
	thief, size := calls[0][0], calls[0][1]
	if size != sessions {
		t.Fatalf("merged batch holds %d windows, want all %d", size, sessions)
	}
	st := svc.Stats()
	if st.CoalescedBatches != 1 {
		t.Fatalf("CoalescedBatches %d, want 1", st.CoalescedBatches)
	}
	if want := uint64(sessions - perShard[thief]); st.CoalescedWindows != want {
		t.Fatalf("CoalescedWindows %d, want %d (total %d minus thief shard %d's own %d)",
			st.CoalescedWindows, want, sessions, thief, perShard[thief])
	}
	if delivered.Load() != sessions {
		t.Fatalf("%d estimates delivered, want %d", delivered.Load(), sessions)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after the merged flush", st.QueueDepth)
	}
	if st.LastBatchSize != sessions {
		t.Fatalf("LastBatchSize %d, want %d", st.LastBatchSize, sessions)
	}

	// Nothing left behind: a second Flush dispatches no batch.
	svc.Flush()
	if again := log.snapshot(); len(again) != 1 {
		t.Fatalf("second Flush dispatched %d extra batches", len(again)-1)
	}
}

// TestCoalesceHeavyLoadNoSteal pins the self-disabling side: when
// every shard's own queue already reaches coalesceMin, no stealing
// happens — each shard dispatches its own windows in its own batch and
// the coalesce counters stay at zero.
func TestCoalesceHeavyLoadNoSteal(t *testing.T) {
	const shards = 4
	const minBatch = coalesceMin
	log := &batchLog{}
	svc, err := New(context.Background(),
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(shards),
		WithManualDispatch(),
		WithBatchFailpoint(log.hook),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Exactly coalesceMin windows on every shard.
	for idx := 0; idx < shards; idx++ {
		for _, id := range idsOnShard(svc, idx, minBatch) {
			ss, err := svc.StartSession(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := ss.Push(dp(1, 1)); err != nil {
				t.Fatal(err)
			}
			if err := ss.Push(dp(11, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	svc.Flush()

	calls := log.snapshot()
	if len(calls) != shards {
		t.Fatalf("heavy load flushed in %d batches (%v), want one per shard (%d)", len(calls), calls, shards)
	}
	for i, c := range calls {
		if c[0] != i || c[1] != minBatch {
			t.Fatalf("batch %d came from shard %d with %d windows, want shard %d with %d", i, c[0], c[1], i, minBatch)
		}
	}
	st := svc.Stats()
	if st.CoalescedBatches != 0 || st.CoalescedWindows != 0 {
		t.Fatalf("coalesce counters %d/%d under heavy load, want 0/0", st.CoalescedBatches, st.CoalescedWindows)
	}
}

// TestCoalesceDeterministicReplay pins the property fleetsim depends
// on: the same manual-dispatch scenario produces the byte-identical
// batch sequence on every run — steal order under Flush is a pure
// function of the queue state, not of goroutine timing.
func TestCoalesceDeterministicReplay(t *testing.T) {
	run := func() [][2]int {
		log := &batchLog{}
		svc, err := New(context.Background(),
			WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
			WithShards(8),
			WithManualDispatch(),
			WithBatchFailpoint(log.hook),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		for i := 0; i < 20; i++ {
			ss, err := svc.StartSession(fmt.Sprintf("s-%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w <= i%3+1; w++ {
				if err := ss.Push(dp(float64(w*10+1), float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if i%5 == 0 {
				svc.Flush()
			}
		}
		svc.Flush()
		return log.snapshot()
	}
	first := run()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay diverged:\n  first:  %v\n  second: %v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("scenario dispatched no batches — nothing was exercised")
	}
}

// TestCoalesceExactAccountingConcurrent re-proves the shed partition
// invariant with stealing in the mix: under concurrent producers,
// background dispatchers, a tight ShedPolicy, AND cross-shard
// work sharing, every completed window is still either predicted exactly
// once or shed exactly once — takes under the victim shard's own lock
// keep the depth and shed accounting exact no matter which dispatcher
// does the taking. Run under -race.
func TestCoalesceExactAccountingConcurrent(t *testing.T) {
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
			prio := c % 2
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
	if got, want := estimates.Load(), queued.Load(); got != want {
		t.Fatalf("%d estimates for %d accepted windows with coalescing on", got, want)
	}
	if st.Predictions != estimates.Load() {
		t.Fatalf("stats predictions %d vs %d deliveries", st.Predictions, estimates.Load())
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

// TestDefaultWorkSharing pins what a service built with no dispatch
// option does: four shards holding one window each flush as ONE
// PredictBatch call served by the first shard, and the merged batches
// keep the two per-shard guarantees — per-session estimate order, and
// no window enqueued after Deploy returned predicted by the old model.
func TestDefaultWorkSharing(t *testing.T) {
	const shards = 4
	log := &batchLog{}
	got := map[string][]Estimate{}
	svc, err := New(context.Background(),
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(shards),
		WithManualDispatch(),
		WithBatchFailpoint(log.hook),
		WithEstimateFunc(func(e Estimate) { got[e.SessionID] = append(got[e.SessionID], e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sessions := make([]*Session, shards)
	for idx := range sessions {
		if sessions[idx], err = svc.StartSession(idsOnShard(svc, idx, 1)[0]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	pushWindow := func() {
		for _, ss := range sessions {
			if err := ss.Push(dp(float64(next*10+1), 1)); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}
	pushWindow() // opens every session's first window
	pushWindow() // completes it: one queued window per shard
	svc.Flush()

	if calls, want := log.snapshot(), [][2]int{{0, shards}}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("batch sequence %v, want %v (shard 0 serves all four queues)", calls, want)
	}
	st := svc.Stats()
	if st.CoalescedBatches != 1 || st.CoalescedWindows != shards-1 {
		t.Fatalf("coalesce counters %d/%d, want 1 batch with %d neighbor windows", st.CoalescedBatches, st.CoalescedWindows, shards-1)
	}

	// Two windows per session queued before Deploy, two after, all
	// flushed together: whatever the merge order, the post-Deploy
	// windows must carry the new version.
	pushWindow()
	pushWindow()
	v2, err := svc.Deploy(&Deployment{Model: &stubModel{base: 2}, Name: "v2", Aggregation: rawAgg()})
	if err != nil {
		t.Fatal(err)
	}
	fresh := float64((next-1)*10 + 1) // Tgen of the first window completed after Deploy
	pushWindow()
	pushWindow()
	svc.Flush()

	for _, ss := range sessions {
		ests := got[ss.ID()]
		if len(ests) != 5 {
			t.Fatalf("session %s got %d estimates, want 5", ss.ID(), len(ests))
		}
		for i, e := range ests {
			if i > 0 && e.Tgen <= ests[i-1].Tgen {
				t.Fatalf("session %s estimates out of order: %v", ss.ID(), ests)
			}
			if e.Tgen >= fresh && e.ModelVersion != v2 {
				t.Fatalf("session %s window %v enqueued after Deploy predicted by version %d, want %d", ss.ID(), e.Tgen, e.ModelVersion, v2)
			}
		}
	}
}

// TestThiefVsSweepAndClose is the in-flight interaction gate (run under
// -race): while a thief from another shard carries a session's windows,
// the idle sweep must spare that session (pendingWindows), a window
// pushed mid-carry must queue or shed exactly, the session's own Close
// must not lose what is in flight, and Service.Close must wait for the
// thief and then drain the rest — predicted + shed == accepted, every
// window exactly once.
func TestThiefVsSweepAndClose(t *testing.T) {
	const ttl = 50 * time.Millisecond
	var clk atomic.Int64
	clk.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	now := func() time.Time { return time.Unix(0, clk.Load()) }

	type key struct {
		id   string
		tgen float64
	}
	var seenMu sync.Mutex
	seen := make(map[key]int)
	record := func(e Estimate) {
		seenMu.Lock()
		seen[key{e.SessionID, e.Tgen}]++
		seenMu.Unlock()
	}

	entered := make(chan struct{})
	unblock := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	failpoint := func(shard, size int) {
		if size == 3 && armed.CompareAndSwap(true, false) {
			close(entered)
			<-unblock
		}
	}

	svc, err := New(context.Background(),
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(3),
		WithManualDispatch(),
		WithClock(now),
		WithSessionTTL(ttl),
		WithBatchFailpoint(failpoint),
		WithEstimateFunc(record),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// victim session on shard 1 with two completed windows queued;
	// trigger session on shard 0 with one (its flush will steal shard
	// 1's queue); idle session on shard 2 proving the sweep really ran.
	// Shedding starts once the stage is set.
	victimID := idsOnShard(svc, 1, 1)[0]
	victim, err := svc.StartSession(victimID)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for w := 0; w <= 2; w++ {
		if err := victim.Push(dp(float64(w*10+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	accepted += 2
	triggerID := idsOnShard(svc, 0, 1)[0]
	trigger, err := svc.StartSession(triggerID)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w <= 1; w++ {
		if err := trigger.Push(dp(float64(w*10+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	accepted++
	if _, err := svc.StartSession(idsOnShard(svc, 2, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetShedPolicy(ShedPolicy{MaxQueueDepth: 1, MinPriority: 1}); err != nil {
		t.Fatal(err)
	}

	// The thief: flushing shard 0 takes its own single window, steals
	// shard 1's two, and blocks in the failpoint holding both dispatch
	// mutexes with the three windows in flight.
	thiefDone := make(chan struct{})
	go func() {
		defer close(thiefDone)
		svc.flushShard(svc.shards[0])
	}()
	<-entered

	// Mid-carry pushes land on the victim's (emptied) home queue: the
	// first is accepted, the second finds the queue at the shed depth.
	if err := victim.Push(dp(31, 1)); err != nil {
		t.Fatal(err)
	}
	accepted++
	if err := victim.Push(dp(41, 1)); !errors.Is(err, ErrWindowShed) {
		t.Fatalf("second mid-carry push: %v, want ErrWindowShed", err)
	}
	accepted++

	// The sweep: everything is past the TTL on the virtual clock, but
	// the victim and trigger sessions have windows in flight or queued
	// and must be spared; only the idle session goes.
	clk.Add(int64(10 * ttl))
	svc.SweepIdleNow()
	if got := svc.Stats().EvictedSessions; got != 1 {
		t.Fatalf("sweep evicted %d sessions mid-carry, want exactly 1 (the idle one)", got)
	}
	if _, ok := svc.Session(victimID); !ok {
		t.Fatal("victim session evicted while a thief carried its windows")
	}

	// The session's own Close never waits for a dispatcher; the
	// service's Close must — its drain needs shard 0's dispatch mutex.
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Push(dp(51, 1)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("push after session Close: %v, want ErrSessionClosed", err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		svc.Close()
	}()
	select {
	case <-closed:
		t.Fatal("Service.Close returned while the thief still carried three windows")
	case <-time.After(20 * time.Millisecond):
	}
	seenMu.Lock()
	early := len(seen)
	seenMu.Unlock()
	if early != 0 {
		t.Fatalf("%d windows delivered while the thief was blocked", early)
	}

	close(unblock)
	<-thiefDone
	<-closed

	st := svc.Stats()
	if got := st.Predictions + st.ShedWindows; st.ShedWindows != 1 || got != uint64(accepted) {
		t.Fatalf("predicted %d + shed %d != accepted %d (want exactly one shed)", st.Predictions, st.ShedWindows, accepted)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after Close — a window was stranded", st.QueueDepth)
	}
	seenMu.Lock()
	defer seenMu.Unlock()
	// Single-datapoint windows emit tgen = the datapoint's Tgen.
	wantKeys := []key{
		{victimID, 1}, {victimID, 11}, {victimID, 21},
		{triggerID, 1},
	}
	if len(seen) != len(wantKeys) {
		t.Fatalf("%d distinct windows predicted, want %d: %v", len(seen), len(wantKeys), seen)
	}
	for _, k := range wantKeys {
		if seen[k] != 1 {
			t.Fatalf("window %v predicted %d times, want exactly once", k, seen[k])
		}
	}
}
