package mat

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// subSPD returns the leading k×k block of a.
func subSPD(a *Dense, k int) *Dense {
	out := NewDense(k, k)
	for i := 0; i < k; i++ {
		copy(out.Row(i), a.Row(i)[:k])
	}
	return out
}

// borderBlocks slices the bordered blocks A21 (rows n0..n against
// columns 0..n0) and A22 out of the full matrix a.
func borderBlocks(a *Dense, n0, n int) (a21, a22 *Dense) {
	m := n - n0
	a21 = NewDense(m, n0)
	a22 = NewDense(m, m)
	for i := 0; i < m; i++ {
		copy(a21.Row(i), a.Row(n0 + i)[:n0])
		copy(a22.Row(i), a.Row(n0 + i)[n0:n])
	}
	return a21, a22
}

func TestCholExtendMatchesFromScratch(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		src := randx.New(41)
		for _, tc := range []struct{ n0, m int }{
			{1, 1}, {5, 3}, {40, 1}, {63, 2}, {64, 64}, {100, 37}, {130, 70},
		} {
			n := tc.n0 + tc.m
			a := randSPD(src, n)
			ch, err := NewCholesky(subSPD(a, tc.n0))
			if err != nil {
				t.Fatalf("n0=%d: %v", tc.n0, err)
			}
			a21, a22 := borderBlocks(a, tc.n0, n)
			if err := ch.Extend(a21, a22, nil); err != nil {
				t.Fatalf("extend %d+%d: %v", tc.n0, tc.m, err)
			}
			if ch.Size() != n {
				t.Fatalf("extend %d+%d: size %d", tc.n0, tc.m, ch.Size())
			}
			want, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("full n=%d: %v", n, err)
			}
			if d := maxAbsDiff(ch.L(), want.L()); d > 1e-8 {
				t.Fatalf("extend %d+%d: factor diff %g", tc.n0, tc.m, d)
			}
		}
	})
}

// TestCholExtendRepeatedAppends grows a factor in many small steps —
// the live-retraining pattern — and checks solves stay pinned to the
// from-scratch result.
func TestCholExtendRepeatedAppends(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		src := randx.New(43)
		const n0, step, steps = 30, 7, 9
		n := n0 + step*steps
		a := randSPD(src, n)
		pool := &Pool{}
		ch, err := NewCholesky(subSPD(a, n0))
		if err != nil {
			t.Fatal(err)
		}
		for k := n0; k < n; k += step {
			a21, a22 := borderBlocks(a, k, k+step)
			if err := ch.Extend(a21, a22, pool); err != nil {
				t.Fatalf("extend at %d: %v", k, err)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = src.Uniform(-1, 1)
		}
		got, err := ch.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-8 {
				t.Fatalf("solve[%d]: diff %g", i, d)
			}
		}
	})
}

// TestCholExtendNotPDLeavesFactorIntact checks the documented failure
// mode: a border that breaks positive definiteness must leave the
// original factorization usable.
func TestCholExtendNotPDLeavesFactorIntact(t *testing.T) {
	src := randx.New(47)
	const n0, m = 20, 3
	a0 := randSPD(src, n0)
	ch, err := NewCholesky(a0)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.L()
	// A22 = 0 makes the Schur complement negative definite.
	a21 := NewDense(m, n0)
	for i := 0; i < m; i++ {
		for j := 0; j < n0; j++ {
			a21.Set(i, j, src.Uniform(-1, 1))
		}
	}
	a22 := NewDense(m, m)
	if err := ch.Extend(a21, a22, nil); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	if ch.Size() != n0 {
		t.Fatalf("size changed to %d", ch.Size())
	}
	if d := maxAbsDiff(ch.L(), before); d != 0 {
		t.Fatalf("factor changed by %g", d)
	}
}

func TestCholExtendShapeErrors(t *testing.T) {
	src := randx.New(48)
	ch, err := NewCholesky(randSPD(src, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Extend(NewDense(2, 7), NewDense(2, 2), nil); err != ErrShape {
		t.Fatalf("bad a21 width: got %v", err)
	}
	if err := ch.Extend(NewDense(2, 8), NewDense(3, 3), nil); err != ErrShape {
		t.Fatalf("bad a22 shape: got %v", err)
	}
	if err := ch.Extend(NewDense(0, 8), NewDense(0, 0), nil); err != nil {
		t.Fatalf("empty extend: %v", err)
	}
	if ch.Size() != 8 {
		t.Fatalf("size %d after no-op extend", ch.Size())
	}
}

// TestCholeskyRegrowthIsTight pins what a factor may own: after any
// Extend its capacity is at most GrowCap of the rows it needed at its
// last regrowth (an eighth plus 32 spare rows — the buffer is square, so
// row slack costs its square in bytes), and appends inside that
// headroom never move the buffer.
func TestCholeskyRegrowthIsTight(t *testing.T) {
	src := randx.New(53)
	const n0, step, n = 40, 5, 400
	a := randSPD(src, n)
	pool := &Pool{}
	ch, err := NewCholesky(subSPD(a, n0))
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for k := n0; k < n; k += step {
		before, spare := &ch.data[0], ch.stride-ch.origin-ch.n
		a21, a22 := borderBlocks(a, k, k+step)
		if err := ch.Extend(a21, a22, pool); err != nil {
			t.Fatalf("extend at %d: %v", k, err)
		}
		need := k + step
		if ch.stride < need || ch.stride > GrowCap(need) {
			t.Fatalf("%d rows own a capacity of %d, want within [%d, %d]", need, ch.stride, need, GrowCap(need))
		}
		if moved := &ch.data[0] != before; moved && spare >= step {
			t.Fatalf("extend at %d copied the factor with %d spare rows", k, spare)
		} else if moved {
			moves++
			if ch.stride != GrowCap(need) {
				t.Fatalf("regrew %d rows to %d, want GrowCap = %d", need, ch.stride, GrowCap(need))
			}
		}
	}
	// Geometric growth: 72 steps of 5 rows, but only a handful of copies
	// (each regrowth buys need/8 + 32 rows, at least 7 steps).
	if moves == 0 || moves > (n-n0)/step/7+1 {
		t.Fatalf("%d regrowths over %d appends", moves, (n-n0)/step)
	}
	if st := pool.Stats(); st.Misses != int64(moves) || st.FreeBytes == 0 {
		t.Fatalf("pool stats %+v after %d regrowths", st, moves)
	}
}
