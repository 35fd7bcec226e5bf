package mat

import (
	"math/bits"
	"sync"
	"testing"

	"repro/internal/randx"
)

// TestPoolRecycles pins the recycling rule: a request is served by the
// most recently returned buffer of its 1/8-octave class and by nothing
// else, the Zero variants clear what they recycle, a buffer the pool
// did not hand out is filed under the largest class it covers, and a
// nil pool degrades to plain allocation.
func TestPoolRecycles(t *testing.T) {
	p := &Pool{}
	v := p.GetVec(100)
	if len(v) != 100 || cap(v) != 104 {
		t.Fatalf("GetVec(100): len %d cap %d, want 100 and the class size 104", len(v), cap(v))
	}
	v[0] = 42
	p.PutVec(v)
	if w := p.GetVec(90); cap(w) != 96 {
		t.Fatalf("GetVec(90) drew cap %d: (88, 96] is its own class", cap(w))
	}
	w := p.GetVec(97)
	if &w[0] != &v[0] || len(w) != 97 {
		t.Fatalf("GetVec(97) did not recycle the cap-104 buffer (len %d cap %d)", len(w), cap(w))
	}
	p.PutVec(w)
	z := p.GetVecZero(100)
	if &z[0] != &v[0] {
		t.Fatal("GetVecZero did not recycle")
	}
	for i, x := range z {
		if x != 0 {
			t.Fatalf("GetVecZero[%d] = %g", i, x)
		}
	}
	if st := p.Stats(); st != (PoolStats{Hits: 2, Misses: 2}) {
		t.Fatalf("stats %+v, want 2 hits, 2 misses, nothing free", st)
	}

	// Most recently returned first: the warm one.
	a, b := p.GetVec(1000), p.GetVec(1000)
	p.PutVec(a)
	p.PutVec(b)
	if got := p.GetVec(1000); &got[0] != &b[0] {
		t.Fatal("Get did not return the most recently returned buffer")
	}

	// A foreign capacity between two class sizes serves the class below.
	foreign := make([]float64, 50, 110)
	p.PutVec(foreign)
	if got := p.GetVec(104); &got[0] != &foreign[:1][0] || cap(got) != 110 {
		t.Fatalf("cap-110 buffer not recycled for the 104 class (cap %d)", cap(got))
	}
	p.PutVec(foreign)
	if got := p.GetVec(110); cap(got) != 112 {
		t.Fatalf("GetVec(110) drew cap %d, want a fresh 112: 110 cannot hold every request of its class", cap(got))
	}

	// Dense round-trip.
	d := p.GetDenseZero(10, 10)
	d.Set(3, 4, 1)
	p.PutDense(d)
	e := p.GetDenseZero(10, 10)
	if e.At(3, 4) != 0 {
		t.Fatal("GetDenseZero returned dirty matrix")
	}
	// A nil pool degrades to plain allocation.
	var np *Pool
	if got := np.GetVec(5); len(got) != 5 {
		t.Fatalf("nil pool GetVec len %d", len(got))
	}
	np.PutVec(v)
	np.PutDense(e)
	if np.Stats() != (PoolStats{}) {
		t.Fatal("nil pool has stats")
	}
}

// TestPoolClasses checks the size-class arithmetic as properties: a
// class holds its request with at most an eighth wasted, a class size
// is the largest request of its own class, and sizes strictly increase
// with the index (so the index is unique) up to poolMaxElems.
func TestPoolClasses(t *testing.T) {
	check := func(n int) {
		c := poolClass(n)
		if c < 0 || c >= poolClasses {
			t.Fatalf("poolClass(%d) = %d out of range", n, c)
		}
		size := poolClassSize(c)
		if size < n || size-n > n/8 {
			t.Fatalf("n = %d: class %d has size %d", n, c, size)
		}
		if poolClass(size) != c {
			t.Fatalf("class %d size %d maps to class %d", c, size, poolClass(size))
		}
		if c > 0 && poolClassSize(c-1) >= n {
			t.Fatalf("n = %d: class %d (size %d) would already hold it", n, c-1, poolClassSize(c-1))
		}
	}
	for n := 1; n <= 1<<16; n++ {
		check(n)
	}
	src := randx.New(16)
	for i := 0; i < 1<<16; i++ {
		check(1 + int(src.Uint64()>>uint(29+src.Intn(35)))%poolMaxElems)
	}
	for c := 0; c < poolClasses; c++ {
		size := poolClassSize(c)
		check(size)
		if size < poolMaxElems {
			check(size + 1)
		}
		if c > 0 && size <= poolClassSize(c-1) {
			t.Fatalf("class %d size %d not above class %d size %d", c, size, c-1, poolClassSize(c-1))
		}
	}
	if last := poolClassSize(poolClasses - 1); last != poolMaxElems {
		t.Fatalf("last class holds %d elements, want poolMaxElems = %d", last, poolMaxElems)
	}
	if bits.OnesCount(poolBudget) != 1 {
		t.Fatalf("poolBudget %d: the budget tests cut it into exact class sizes", poolBudget)
	}
}

// TestPoolBudget pins the retention rule through Stats: the free lists
// never hold more than poolBudget, the buffer returned longest ago goes
// first whatever its class or size, drawing and returning a buffer makes
// it the newest, and a buffer larger than the whole budget is never
// kept. The buffers are large but never touched, so they cost address
// space only.
func TestPoolBudget(t *testing.T) {
	const (
		unit = poolBudget / 8 / 8 // elements of one eighth of the budget: a class size
		next = unit / 8 * 9       // the class size after it
	)
	p := &Pool{}
	first := p.GetVec(unit)
	other := p.GetVec(next)
	small := p.GetVec(100)
	p.PutVec(first)
	p.PutVec(other)
	p.PutVec(small)
	// first goes out and comes back: other is now the oldest.
	if got := p.GetVec(unit); &got[0] != &first[0] {
		t.Fatal("did not recycle first")
	}
	p.PutVec(first)
	want := PoolStats{FreeBytes: 8 * (unit + next + int64(cap(small))), Hits: 1, Misses: 3}
	if st := p.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	// Six more eighths: 7/8 + 9/64 of the budget is over it, and the
	// oldest — other, not the first-returned first — must go. small,
	// returned after other, stays.
	for i := 0; i < 6; i++ {
		p.PutVec(make([]float64, unit))
		if st := p.Stats(); st.FreeBytes > poolBudget {
			t.Fatalf("put %d: %d bytes free, over the budget %d", i, st.FreeBytes, poolBudget)
		}
	}
	want.FreeBytes += 8 * (6*unit - next)
	want.ReleasedBytes = 8 * next
	if st := p.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	p.GetVec(next) // its class is empty now: a miss
	want.Misses++
	if got := p.GetVec(100); &got[0] != &small[0] {
		t.Fatal("a newer small buffer was released before the oldest")
	}
	want.Hits++
	want.FreeBytes -= 8 * int64(cap(small))
	// One more eighth fills the budget exactly: nothing is released.
	p.PutVec(make([]float64, unit))
	want.FreeBytes += 8 * unit
	if st := p.Stats(); st != want || st.FreeBytes != poolBudget {
		t.Fatalf("stats %+v, want %+v (the whole budget, exactly)", st, want)
	}
	// A buffer over the budget is dropped and evicts nothing.
	huge := make([]float64, poolBudget/8+1)
	p.PutVec(huge)
	want.ReleasedBytes += 8 * int64(cap(huge))
	if st := p.Stats(); st != want {
		t.Fatalf("after an over-budget put: stats %+v, want %+v", st, want)
	}
	// What is left comes back newest first, and then the class is empty.
	for i := 0; i < 8; i++ {
		got := p.GetVec(unit)
		if i == 7 && &got[0] != &first[0] {
			t.Fatal("first should be the last of its class to be drawn")
		}
	}
	want.Hits += 8
	want.FreeBytes = 0
	if st := p.Stats(); st != want {
		t.Fatalf("drained: stats %+v, want %+v", st, want)
	}
}

// TestPoolConcurrent hammers one pool from many goroutines (run under
// -race): no buffer is ever held by two callers at once, and the
// counters add up.
func TestPoolConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	p := &Pool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := randx.New(uint64(w) + 1)
			held := make([][]float64, 0, 4)
			for i := 0; i < rounds; i++ {
				v := p.GetVec(1 + src.Intn(3000))
				tag := float64(w*rounds + i)
				v[0], v[len(v)-1] = tag, tag
				held = append(held, v)
				if len(held) == cap(held) {
					for _, h := range held {
						if h[0] != h[len(h)-1] {
							t.Errorf("worker %d: buffer written by someone else while held", w)
						}
						p.PutVec(h)
					}
					held = held[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, workers*rounds)
	}
	if st.Hits == 0 || st.FreeBytes <= 0 || st.FreeBytes > poolBudget {
		t.Fatalf("stats %+v", st)
	}
}

var sinkVec []float64

// BenchmarkPoolGetPut times the hit path PredictBatch takes per batch
// — one Get and one Put of a warm class — alone and contended. For
// local use; no committed baseline. Both must report 0 allocs/op.
func BenchmarkPoolGetPut(b *testing.B) {
	const n = 48*32 + 48 + 48*967 // the serving scratch of a 967-row model
	b.Run("serial", func(b *testing.B) {
		p := &Pool{}
		p.PutVec(p.GetVec(n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := p.GetVec(n)
			sinkVec = v
			p.PutVec(v)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		p := &Pool{}
		warm := make([][]float64, 64)
		for i := range warm {
			warm[i] = p.GetVec(n)
		}
		for _, v := range warm {
			p.PutVec(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p.PutVec(p.GetVec(n))
			}
		})
	})
}
