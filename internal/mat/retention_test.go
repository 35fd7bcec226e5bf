package mat_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/mat"
	"repro/internal/ml/lssvm"
	"repro/internal/ml/svm"
	"repro/internal/randx"
)

// TestSharedPoolRetention is the long-running trainer in miniature: one
// LS-SVM and one ε-SVR slide their windows through 240 evict + append
// cycles, the window wobbling by a third so the Gram and factor sizes
// keep crossing class boundaries, both drawing from mat.Shared. The
// pool starts full (as a trainer's is after its cold run, here with
// untouched filler), so every buffer the learners return has to push
// older ones out: what sits free never exceeds the budget, the learners
// still recycle (hits outnumber misses), and the heap in use does not
// grow after warm-up — a buffer stranded outside the pool, or a free
// list that only grows, shows as a ramp.
func TestSharedPoolRetention(t *testing.T) {
	const d, base, swing, cycles, warm = 5, 240, 40, 240, 60
	src := randx.New(160)
	data := func(n int) (X [][]float64, y []float64) {
		for i := 0; i < n; i++ {
			row := make([]float64, d)
			var s float64
			for j := range row {
				row[j] = src.Uniform(-2, 2)
				s += row[j] * math.Sin(float64(j+1)*row[j])
			}
			X = append(X, row)
			y = append(y, s+src.Norm(0, 0.05))
		}
		return X, y
	}
	ls, err := lssvm.New(lssvm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sv, err := svm.New(svm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	X, y := data(base)
	if err := ls.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := sv.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	heapInuse := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapInuse) / (1 << 20)
	}
	for free := mat.Shared.Stats().FreeBytes; free < mat.PoolBudget; free += mat.PoolBudget / 16 {
		mat.Shared.PutVec(make([]float64, mat.PoolBudget/16/8))
	}
	start := mat.Shared.Stats()
	var settled float64
	n := base
	for c := 0; c < cycles; c++ {
		// A triangle wave of period 48 between base−swing and base+swing.
		target := base - swing + 2*swing*min(c%48, 48-c%48)/24
		appendN := 10 + c%7
		evict := n + appendN - target
		if evict < 0 {
			appendN, evict = appendN-evict, 0
		}
		Xn, yn := data(appendN)
		if err := ls.SlideWindow(Xn, yn, evict); err != nil {
			t.Fatalf("cycle %d: lssvm: %v", c, err)
		}
		if err := sv.SlideWindow(Xn, yn, evict); err != nil {
			t.Fatalf("cycle %d: svm: %v", c, err)
		}
		n = target
		if free := mat.Shared.Stats().FreeBytes; free > mat.PoolBudget {
			t.Fatalf("cycle %d: %d bytes free, over the budget %d", c, free, mat.PoolBudget)
		}
		switch {
		case c == warm:
			settled = heapInuse()
		case c > warm && c%20 == 0:
			// 2 MiB of slack: at most a few Gram buffers (≈0.6 MiB each at
			// this window) caught on the other side of a collection.
			if now := heapInuse(); now > settled+2 {
				t.Fatalf("cycle %d: heap in use %.1f MiB, was %.1f MiB after warm-up", c, now, settled)
			}
		}
	}
	st := mat.Shared.Stats()
	hits, misses := st.Hits-start.Hits, st.Misses-start.Misses
	if hits <= misses {
		t.Fatalf("%d hits, %d misses over %d cycles: the learners are not recycling", hits, misses, cycles)
	}
	if st.ReleasedBytes == start.ReleasedBytes {
		t.Fatal("a full pool released nothing")
	}
	t.Logf("window %d±%d rows, %d cycles: %d hits, %d misses, %d bytes free, %d released",
		base, swing, cycles, hits, misses, st.FreeBytes, st.ReleasedBytes-start.ReleasedBytes)
}
