package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// BenchmarkShardedDispatch measures sustained window throughput of the
// serving hot path at 10⁴ busy sessions: b.N completed aggregation
// windows pushed by concurrent producers through Session.Push,
// dispatched in cross-session batches, predicted (stub model) and
// delivered — ns/op is the full per-window path including the drain.
// The shards=1 sub-benchmark is the pre-sharding architecture (one
// pending queue, one dispatcher); the larger shard counts split the
// session map, the queue, and the dispatch across that many workers,
// so the committed BENCH reports track the single-vs-sharded ratio on
// the measuring machine (the win is lock-contention and parallelism
// bound: expect ~parity at GOMAXPROCS=1 and scaling ratios on
// multicore boxes).
func BenchmarkShardedDispatch(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchDispatch(b, shards) })
	}
}

func benchDispatch(b *testing.B, shards int) {
	const (
		sessions  = 10_000
		producers = 8
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc, err := New(ctx,
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(shards),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	ss := make([]*Session, sessions)
	for i := range ss {
		if ss[i], err = svc.StartSession(fmt.Sprintf("s-%05d", i)); err != nil {
			b.Fatal(err)
		}
	}
	// Prime every session with one in-window datapoint so each later
	// push lands exactly on the next window boundary and completes
	// exactly one window.
	next := make([]float64, sessions)
	for i, s := range ss {
		if err := s.Push(dp(1, float64(i%97))); err != nil {
			b.Fatal(err)
		}
		next[i] = 11
	}
	svc.Flush()
	base := svc.Stats().Predictions

	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		lo, hi := p*sessions/producers, (p+1)*sessions/producers
		quota := b.N/producers + btoi(p < b.N%producers)
		wg.Add(1)
		go func(lo, hi, quota int) {
			defer wg.Done()
			i := lo
			for w := 0; w < quota; w++ {
				if err := ss[i].Push(dp(next[i], 1)); err != nil {
					b.Error(err)
					return
				}
				next[i] += 10
				if i++; i == hi {
					i = lo
				}
			}
		}(lo, hi, quota)
	}
	wg.Wait()
	// The op is the full window lifecycle: wait for every completed
	// window to be predicted and delivered before stopping the clock
	// (Gosched, not a sleep — a sleep's granularity would dominate
	// small iteration counts).
	want := base + uint64(b.N)
	for svc.Stats().Predictions < want {
		runtime.Gosched()
	}
	b.StopTimer()
	if got := svc.Stats().Predictions; got != want {
		b.Fatalf("%d predictions, want %d", got, want)
	}
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// BenchmarkCoalescedDispatch measures the light-load regime work
// sharing targets, for local use (no CI gate reads it): 64 sessions
// spread over 8 shards each complete one window, then one Flush drains
// the fleet in a few merged batches instead of 8 tiny per-shard ones.
func BenchmarkCoalescedDispatch(b *testing.B) {
	const sessions = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc, err := New(ctx,
		WithDeployment(&Deployment{Model: &stubModel{base: 1}, Name: "v1", Aggregation: rawAgg()}),
		WithShards(8),
		WithManualDispatch(),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	ss := make([]*Session, sessions)
	next := make([]float64, sessions)
	for i := range ss {
		if ss[i], err = svc.StartSession(fmt.Sprintf("s-%05d", i)); err != nil {
			b.Fatal(err)
		}
		if err := ss[i].Push(dp(1, float64(i%97))); err != nil {
			b.Fatal(err)
		}
		next[i] = 11
	}
	svc.Flush()
	base := svc.Stats().Predictions

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range ss {
			if err := ss[i].Push(dp(next[i], 1)); err != nil {
				b.Fatal(err)
			}
			next[i] += 10
		}
		svc.Flush()
	}
	b.StopTimer()
	if got, want := svc.Stats().Predictions, base+uint64(b.N*sessions); got != want {
		b.Fatalf("%d predictions, want %d", got, want)
	}
}
