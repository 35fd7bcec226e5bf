package mat

import (
	"math/bits"
	"sync"
)

// Pool recycles float64 buffers and Dense matrices across repeated
// retrains, so incremental pipelines stop paying allocation and
// page-zeroing for every Gram build, factor growth, or prediction
// scratch. Buffers are kept in size classes an eighth of an octave
// apart, so a request is rounded up by at most an eighth of itself;
// Get returns a slice whose contents are arbitrary (callers that need
// zeros use the Zero variants, whose explicit clear over warm pages is
// still far cheaper than faulting fresh ones).
//
// What sits free is bounded in bytes, not entries: once the free lists
// hold more than poolBudget, the buffers returned longest ago are
// released to the collector first, and a buffer larger than the budget
// is never retained. The rule depends only on the sequence of Get and
// Put calls — no clock, no collector hook — so it can be pinned by
// tests and a long-running trainer holds what it uses plus at most the
// budget.
//
// A nil *Pool is valid and falls back to plain allocation, so APIs can
// take an optional pool. The zero value is ready to use, and all
// methods are safe for concurrent callers.
type Pool struct {
	mu      sync.Mutex
	classes [poolClasses]bufList // each class's free buffers, oldest first
	free    bufList              // every free buffer, in the order returned
	spare   *freeBuf             // unlinked nodes, so a warm Put allocates nothing
	stats   PoolStats
}

// Shared is the process-wide pool the kernel learners draw from. One
// pool rather than one per package: a Gram one learner has returned
// serves the next learner's request, so what sits free follows the
// largest concurrent demand instead of the sum of every package's.
var Shared = &Pool{}

// PoolStats is a snapshot of a pool's counters.
type PoolStats struct {
	FreeBytes     int64 // bytes sitting in the free lists now
	Hits          int64 // Gets served from a free list
	Misses        int64 // Gets that allocated
	ReleasedBytes int64 // bytes Put dropped for the collector, over the budget
}

// poolBudget bounds the bytes the free lists retain: two Gram matrices
// of a 2000-row training window (2000² × 8 B = 30.5 MiB each). An ε-SVR
// slide draws its next Gram while it still holds the previous one and
// returns that on commit, core.Pipeline updates its models GOMAXPROCS
// at a time, and the paper-scale roster has two ε-SVR models (one per
// column family) — so two Grams is the concurrent demand of the trainer
// the end-to-end benchmark measures, and everything else drawn here
// (LS-SVM border blocks, downdate panels, prediction scratch) is orders
// of magnitude smaller. A larger budget buys hits, not time: at 64 / 96
// / 128 MiB retrain-publish reads 311 / 237 / 197 misses by cycle 80,
// retrain_to_serve_ms 127 / 126 / 126 (a miss is one clear of fresh
// pages, off the cycle's critical path) and 241 / 273 / 335 MB of heap
// in use (docs/performance.md, "Trainer memory"), so the budget is set
// by what retention costs.
const poolBudget = 64 << 20

// Size classes: every size up to 16 is its own class, and each octave
// (8·2^e, 16·2^e] above that is cut into eight classes 2^e apart —
// 18, 20, … 32, 36, 40, … 64, 72, … The class of a request and the size
// of a class are both a shift and an add, so Get and Put index a fixed
// array with no search.
const (
	poolMaxElems = 1 << 35 // larger requests bypass the pool
	poolClasses  = 8 + 8*32
)

// poolClass returns the index of the smallest class holding n
// elements, 1 <= n <= poolMaxElems.
func poolClass(n int) int {
	if n <= 8 {
		return n - 1
	}
	e := bits.Len(uint(n-1)) - 4
	return 8*e + (n-1)>>e // 8 + 8e + (mantissa − 9), mantissa = (n−1)>>e + 1
}

// poolClassSize returns the capacity of class c's buffers.
func poolClassSize(c int) int {
	if c < 8 {
		return c + 1
	}
	return (9 + c&7) << ((c - 8) >> 3)
}

// freeBuf is one retained buffer, linked into the pool-wide list and
// into its class's list. Both are in order of return, so the pool-wide
// oldest buffer is also the oldest of its class.
type freeBuf struct {
	buf   []float64
	class int
	link  [2]struct{ older, newer *freeBuf }
}

const (
	byAge   = iota // Pool.free
	byClass        // Pool.classes[c]
)

// bufList is a doubly linked list of freeBufs through link[k].
type bufList struct{ oldest, newest *freeBuf }

func (l *bufList) push(b *freeBuf, k int) {
	b.link[k].older, b.link[k].newer = l.newest, nil
	if l.newest != nil {
		l.newest.link[k].newer = b
	} else {
		l.oldest = b
	}
	l.newest = b
}

func (l *bufList) remove(b *freeBuf, k int) {
	older, newer := b.link[k].older, b.link[k].newer
	if older != nil {
		older.link[k].newer = newer
	} else {
		l.oldest = newer
	}
	if newer != nil {
		newer.link[k].older = older
	} else {
		l.newest = older
	}
	b.link[k].older, b.link[k].newer = nil, nil
}

// take unlinks b from both lists and returns its buffer. p.mu is held.
func (p *Pool) take(b *freeBuf) []float64 {
	p.classes[b.class].remove(b, byClass)
	p.free.remove(b, byAge)
	v := b.buf
	b.buf = nil
	b.link[byAge].newer = p.spare
	p.spare = b
	p.stats.FreeBytes -= int64(cap(v)) * 8
	return v
}

// GetVec returns a slice of length n with arbitrary contents. The
// backing array is the most recently returned free buffer of n's class
// (the one likeliest to be in cache still), or is freshly allocated at
// the class size when the class has none.
func (p *Pool) GetVec(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if p == nil || n > poolMaxElems {
		return make([]float64, n)
	}
	c := poolClass(n)
	p.mu.Lock()
	if b := p.classes[c].newest; b != nil {
		v := p.take(b)
		p.stats.Hits++
		p.mu.Unlock()
		return v[:n]
	}
	p.stats.Misses++
	p.mu.Unlock()
	return make([]float64, n, poolClassSize(c))
}

// GetVecZero returns a zeroed slice of length n from the pool.
func (p *Pool) GetVecZero(n int) []float64 {
	v := p.GetVec(n)
	clear(v)
	return v
}

// PutVec returns a buffer to the pool, filed under the largest class
// its capacity covers (for everything GetVec hands out, the class it
// was drawn for). If that takes the free lists over poolBudget, the
// buffers returned longest ago are dropped for the collector until they
// fit again. The caller must not use v afterwards.
func (p *Pool) PutVec(v []float64) {
	if p == nil || cap(v) == 0 {
		return
	}
	size := int64(cap(v)) * 8
	p.mu.Lock()
	defer p.mu.Unlock()
	if size > poolBudget {
		p.stats.ReleasedBytes += size
		return
	}
	c := poolClass(cap(v))
	if poolClassSize(c) != cap(v) {
		c--
	}
	b := p.spare
	if b != nil {
		p.spare = b.link[byAge].newer
	} else {
		b = new(freeBuf)
	}
	b.buf, b.class = v, c
	p.free.push(b, byAge)
	p.classes[c].push(b, byClass)
	p.stats.FreeBytes += size
	for p.stats.FreeBytes > poolBudget {
		p.stats.ReleasedBytes += int64(cap(p.take(p.free.oldest))) * 8
	}
}

// Stats returns the pool's counters as of now.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// GetDense returns an r×c matrix with arbitrary contents, backed by a
// pooled buffer.
func (p *Pool) GetDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(errNegativeDimension)
	}
	return &Dense{rows: r, cols: c, data: p.GetVec(r * c)}
}

// GetDenseZero returns a zeroed r×c matrix backed by a pooled buffer.
func (p *Pool) GetDenseZero(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(errNegativeDimension)
	}
	return &Dense{rows: r, cols: c, data: p.GetVecZero(r * c)}
}

// PutDense returns a matrix's backing buffer to the pool. The caller
// must not use m (or views into it) afterwards.
func (p *Pool) PutDense(m *Dense) {
	if p == nil || m == nil {
		return
	}
	p.PutVec(m.data)
	m.data = nil
	m.rows, m.cols = 0, 0
}
