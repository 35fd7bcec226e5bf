package kernel

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// borderKernels is the roster the incremental paths are pinned over:
// every built-in fast path plus a custom kernel forcing the per-pair
// fallback.
func borderKernels() []Kernel {
	return []Kernel{
		Linear{},
		RBF{Gamma: 0.3},
		Poly{Degree: 2, Scale: 0.5, Coef0: 1},
		funcKernel{},
	}
}

// funcKernel is a custom kernel with no flat fast path.
type funcKernel struct{}

func (funcKernel) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return 1 / (1 + s)
}
func (funcKernel) Name() string { return "abs-dist" }

func TestRowsAppendLayout(t *testing.T) {
	X := randX(7, 20, 5)
	all := NewRows(X)
	grown := NewRows(X[:8])
	if err := grown.Append(X[8:15]); err != nil {
		t.Fatal(err)
	}
	if err := grown.Append(X[15:]); err != nil {
		t.Fatal(err)
	}
	if grown.Len() != all.Len() || grown.Dim() != all.Dim() {
		t.Fatalf("grown %dx%d, want %dx%d", grown.Len(), grown.Dim(), all.Len(), all.Dim())
	}
	for i := 0; i < all.Len(); i++ {
		for j := 0; j < all.Dim(); j++ {
			if grown.Row(i)[j] != all.Row(i)[j] {
				t.Fatalf("row %d col %d: %g vs %g", i, j, grown.Row(i)[j], all.Row(i)[j])
			}
		}
		if grown.norms()[i] != all.norms()[i] {
			t.Fatalf("norm %d: %g vs %g", i, grown.norms()[i], all.norms()[i])
		}
	}
	// Appending to an empty Rows adopts the dimension.
	empty := NewRows(nil)
	if err := empty.Append(X[:3]); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 3 || empty.Dim() != 5 {
		t.Fatalf("empty append: %dx%d", empty.Len(), empty.Dim())
	}
	// Dimension mismatches are rejected.
	if err := empty.Append([][]float64{{1, 2}}); err == nil {
		t.Fatal("expected dimension error")
	}
}

// TestExtendMatrixRowsParity pins the incremental Gram extension to
// the from-scratch build for every kernel, including repeated small
// appends.
func TestExtendMatrixRowsParity(t *testing.T) {
	const n, d = 60, 7
	X := randX(11, n, d)
	pool := &mat.Pool{}
	for _, k := range borderKernels() {
		full := Matrix(k, X)
		// One big append.
		r := NewRows(X[:25])
		g := MatrixRows(k, r)
		if err := r.Append(X[25:]); err != nil {
			t.Fatal(err)
		}
		got := ExtendMatrixRows(k, r, 25, g, 0, pool)
		if diff := maxDiff(got, full); diff > 1e-12 {
			t.Fatalf("%s: one-shot extend diff %g", k.Name(), diff)
		}
		pool.PutDense(got)
		// Evict and append in one copy: the stored values sit in the
		// trailing block of a Gram that still has the 9 evicted rows in
		// front, and the result is the Gram of rows 9..n.
		r = NewRows(X[:25])
		g = MatrixRows(k, r)
		if err := r.Append(X[25:]); err != nil {
			t.Fatal(err)
		}
		got = ExtendMatrixRows(k, r.Tail(9), 16, g, 9, pool)
		if diff := maxDiff(got, Matrix(k, X[9:])); diff > 1e-12 {
			t.Fatalf("%s: evict + extend diff %g", k.Name(), diff)
		}
		pool.PutDense(got)
		// Many small appends, recycling each intermediate Gram.
		r = NewRows(X[:10])
		g = MatrixRows(k, r)
		for at := 10; at < n; at += 13 {
			end := min(at+13, n)
			if err := r.Append(X[at:end]); err != nil {
				t.Fatal(err)
			}
			ng := ExtendMatrixRows(k, r, at, g, 0, pool)
			pool.PutDense(g)
			g = ng
		}
		if diff := maxDiff(g, full); diff > 1e-12 {
			t.Fatalf("%s: chained extend diff %g", k.Name(), diff)
		}
	}
}

// panicKernel is a custom kernel whose Eval fails.
type panicKernel struct{ funcKernel }

func (panicKernel) Eval(a, b []float64) float64 { panic("eval failed") }

// TestExtendMatrixRowsPanicReturnsScratch pins the one error path of
// the extension: a custom kernel's panic during the border evaluation
// (small enough to run on this goroutine) hands the n×n scratch back
// to the pool instead of stranding it.
func TestExtendMatrixRowsPanicReturnsScratch(t *testing.T) {
	X := randX(12, 30, 4)
	r := NewRows(X[:25])
	g := MatrixRows(funcKernel{}, r)
	if err := r.Append(X[25:]); err != nil {
		t.Fatal(err)
	}
	pool := &mat.Pool{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Eval panic swallowed")
			}
		}()
		ExtendMatrixRows(panicKernel{}, r.Tail(5), 20, g, 5, pool)
	}()
	if st := pool.Stats(); st.Misses != 1 || st.FreeBytes < 25*25*8 {
		t.Fatalf("scratch not returned: %+v", st)
	}
}

func TestGramBorderParity(t *testing.T) {
	const n, oldN, d = 48, 31, 6
	X := randX(13, n, d)
	m := n - oldN
	for _, k := range borderKernels() {
		full := Matrix(k, X)
		r := NewRows(X[:oldN])
		if err := r.Append(X[oldN:]); err != nil {
			t.Fatal(err)
		}
		a21 := mat.NewDense(m, oldN)
		a22 := mat.NewDense(m, m)
		GramBorder(k, r, oldN, a21, a22)
		for i := 0; i < m; i++ {
			for j := 0; j < oldN; j++ {
				if got, want := a21.At(i, j), full.At(oldN+i, j); math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s: a21[%d][%d] = %g, want %g", k.Name(), i, j, got, want)
				}
			}
			for j := 0; j <= i; j++ {
				if got, want := a22.At(i, j), full.At(oldN+i, oldN+j); math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s: a22[%d][%d] = %g, want %g", k.Name(), i, j, got, want)
				}
			}
		}
	}
}

func maxDiff(a, b *mat.Dense) float64 {
	var m float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > m {
				m = d
			}
		}
	}
	return m
}
