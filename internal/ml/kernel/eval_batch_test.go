package kernel

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// stageQueries lays query rows out stride-padded with squared norms,
// the shape EvalBatchFlat consumes (what svm/lssvm PredictBatch do
// internally).
func stageQueries(r *Rows, queries [][]float64) (q, qnorms []float64) {
	stride := r.Stride()
	q = make([]float64, len(queries)*stride)
	qnorms = make([]float64, len(queries))
	for i, row := range queries {
		copy(q[i*stride:], row)
		var s float64
		for _, v := range q[i*stride : (i+1)*stride] {
			s += v * v
		}
		qnorms[i] = s
	}
	return q, qnorms
}

func TestEvalBatchFlatMatchesEval(t *testing.T) {
	for _, k := range testKernels() {
		// qn odd/even exercises the remainder query; n around the tile
		// size exercises partial panels.
		for _, dims := range [][3]int{{1, 1, 3}, {5, 3, 1}, {37, 11, 5}, {50, 24, 8}, {97, 13, 7}} {
			n, d, qn := dims[0], dims[1], dims[2]
			X := randX(uint64(n*1000+qn), n, d)
			rows := NewRows(X)
			queries := randX(uint64(n*1000+qn+1), qn, d)
			q, qnorms := stageQueries(rows, queries)
			out := make([]float64, qn*n)
			EvalBatchFlat(k, rows, q, qnorms, qn, out)
			for i := 0; i < qn; i++ {
				for j := 0; j < n; j++ {
					want := k.Eval(X[j], queries[i])
					if !closeRel(out[i*n+j], want, 1e-12) {
						t.Fatalf("%s n=%d qn=%d (%d,%d): got %g want %g",
							k.Name(), n, qn, i, j, out[i*n+j], want)
					}
				}
			}
		}
	}
	// Degenerate shapes are no-ops.
	EvalBatchFlat(Linear{}, NewRows(nil), nil, nil, 0, nil)
	EvalBatchFlat(Linear{}, NewRows([][]float64{{1}}), nil, nil, 0, nil)
}

func TestMatrixRowsPooled(t *testing.T) {
	pool := &mat.Pool{}
	for _, k := range testKernels() {
		X := randX(77, 41, 9)
		rows := NewRows(X)
		want := MatrixRows(k, rows)
		got := MatrixRowsPooled(k, rows, pool)
		for i := 0; i < 41; i++ {
			for j := 0; j < 41; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("%s (%d,%d): pooled %g direct %g", k.Name(), i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		pool.PutDense(got)
	}
	// A returned buffer serves the next request of its size class — the
	// property the warm-start allocation fix rests on.
	first := MatrixRowsPooled(Linear{}, NewRows(randX(78, 20, 4)), pool)
	data := &first.Row(0)[0]
	pool.PutDense(first)
	second := MatrixRowsPooled(Linear{}, NewRows(randX(79, 20, 4)), pool)
	if &second.Row(0)[0] != data {
		t.Fatal("pooled Gram buffer was not recycled")
	}
	// nil pool falls back to plain allocation.
	if g := MatrixRowsPooled(Linear{}, NewRows(randX(80, 3, 2)), nil); g.Rows() != 3 {
		t.Fatal("nil-pool build failed")
	}
}

func BenchmarkEvalBatchFlat(b *testing.B) {
	const n, d, qn = 1000, 24, 32
	rows := NewRows(benchX(n, d))
	queries := randX(43, qn, d)
	q, qnorms := stageQueries(rows, queries)
	out := make([]float64, qn*n)
	k := RBF{Gamma: 1.0 / 24}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalBatchFlat(k, rows, q, qnorms, qn, out)
	}
}
