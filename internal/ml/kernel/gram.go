package kernel

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Rows is a flat, stride-padded copy of feature rows with cached
// squared norms. It is the batched evaluation layout: Gram
// construction and batched prediction (EvalInto) run straight over the
// flat buffer instead of per-pair interface calls, so the built-in
// kernels hit mat's blocked dot/exp engine.
//
// The store is ring-capable for sliding windows: EvictFront drops the
// oldest rows in O(1) by advancing a head offset, keeping the live
// region contiguous (the batched kernels need flat rows, so a true
// wrap-around ring is out); Append reclaims the evicted front by
// compacting in place before it would otherwise grow. Steady-state
// evict+append cycles therefore run at a flat capacity — the
// bounded-memory contract of the sliding-window retrainers.
type Rows struct {
	n, d, stride int
	head         int       // first live row of buf
	buf          []float64 // backing; live rows at [head*stride, (head+n)*stride)
	normsBuf     []float64 // backing for ||x_i||², aligned with buf rows
}

// NewRows copies X (rows of equal length) into the flat layout.
func NewRows(X [][]float64) *Rows {
	n := len(X)
	r := &Rows{n: n}
	if n == 0 {
		return r
	}
	r.d = len(X[0])
	// Pad the stride to a multiple of 4 so the vectorized dot kernel
	// never needs a scalar tail: the zero padding adds nothing.
	r.stride = (r.d + 3) &^ 3
	r.buf = make([]float64, n*r.stride)
	r.normsBuf = make([]float64, n)
	for i, row := range X {
		copy(r.buf[i*r.stride:], row)
	}
	mat.Parfor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := r.padded(i)
			var s float64
			for _, v := range row {
				s += v * v
			}
			r.normsBuf[i] = s
		}
	})
	return r
}

// flat returns the live stride-padded region (row 0 first), the layout
// the batched kernels consume.
func (r *Rows) flat() []float64 { return r.buf[r.head*r.stride:] }

// norms returns the live squared-norm slice aligned with flat.
func (r *Rows) norms() []float64 { return r.normsBuf[r.head:] }

// Append grows the flat row store with new feature rows, keeping the
// stride-padded layout and cached norms. The backing buffers grow with
// amortized headroom — and reuse the space EvictFront freed at the
// front before growing — so both the streaming-retrain pattern (many
// small appends) and the sliding-window pattern (evict+append cycles)
// run at bounded, eventually flat capacity. Appending to an empty Rows
// fixes the dimension from the first row.
func (r *Rows) Append(Xnew [][]float64) error {
	if len(Xnew) == 0 {
		return nil
	}
	if r.n == 0 && r.d == 0 {
		*r = *NewRows(Xnew)
		return nil
	}
	for i, row := range Xnew {
		if len(row) != r.d {
			return fmt.Errorf("kernel: appended row %d has %d features, want %d", i, len(row), r.d)
		}
	}
	m := len(Xnew)
	r.reserveTail(m)
	for i, row := range Xnew {
		gi := r.head + r.n + i
		dst := r.buf[gi*r.stride : (gi+1)*r.stride]
		copy(dst, row)
		clear(dst[r.d:]) // the padding must stay zero for the dot kernel
		var s float64
		for _, v := range dst {
			s += v * v
		}
		r.normsBuf[gi] = s
	}
	r.n += m
	return nil
}

// reserveTail makes room for m more rows after the live region:
// reslice within capacity when the tail has room, compact the live
// rows to the front when only the evicted head has it, and reallocate
// with 1.5× headroom otherwise.
func (r *Rows) reserveTail(m int) {
	need := (r.head + r.n + m) * r.stride
	if need <= cap(r.buf) && r.head+r.n+m <= cap(r.normsBuf) {
		r.buf = r.buf[:need]
		r.normsBuf = r.normsBuf[:r.head+r.n+m]
		return
	}
	if r.head > 0 && (r.n+m)*r.stride <= cap(r.buf) && r.n+m <= cap(r.normsBuf) {
		// Compact: the freed front plus the tail fits the append. copy
		// handles the overlapping forward move.
		copy(r.buf[:r.n*r.stride], r.buf[r.head*r.stride:(r.head+r.n)*r.stride])
		copy(r.normsBuf[:r.n], r.normsBuf[r.head:r.head+r.n])
		r.head = 0
		r.buf = r.buf[:(r.n+m)*r.stride]
		r.normsBuf = r.normsBuf[:r.n+m]
		return
	}
	newLen := (r.n + m) * r.stride
	nb := make([]float64, newLen, max(newLen, cap(r.buf)*3/2))
	copy(nb, r.buf[r.head*r.stride:])
	nn := make([]float64, r.n+m, max(r.n+m, cap(r.normsBuf)*3/2))
	copy(nn, r.normsBuf[r.head:])
	r.head = 0
	r.buf = nb
	r.normsBuf = nn
}

// Truncate drops rows from the tail, keeping the backing capacity, so
// a failed incremental update can roll the store back to its previous
// length.
func (r *Rows) Truncate(n int) {
	if n < 0 || n > r.n {
		panic(fmt.Sprintf("kernel: truncating %d rows to %d", r.n, n))
	}
	r.n = n
	r.buf = r.buf[:(r.head+n)*r.stride]
	r.normsBuf = r.normsBuf[:r.head+n]
}

// EvictFront drops the k oldest rows in O(1): the head offset advances
// and the freed space is reclaimed by a later Append's compaction. The
// complement of Truncate for sliding windows.
func (r *Rows) EvictFront(k int) {
	if k < 0 || k > r.n {
		panic(fmt.Sprintf("kernel: evicting %d of %d rows", k, r.n))
	}
	r.head += k
	r.n -= k
	if r.n == 0 {
		r.head = 0
		r.buf = r.buf[:0]
		r.normsBuf = r.normsBuf[:0]
	}
}

// Tail returns a zero-copy read-only view of the store without its
// first k rows: row i of the view is row k+i of r, sharing the backing
// buffers. Sliding retrainers evaluate kernel borders against the
// surviving window through it before committing the eviction. Any
// mutation of r (or of the view) invalidates the other.
func (r *Rows) Tail(k int) *Rows {
	if k < 0 || k > r.n {
		panic(fmt.Sprintf("kernel: tail view past %d of %d rows", k, r.n))
	}
	v := *r
	v.head += k
	v.n -= k
	return &v
}

// Cap returns the row capacity of the backing buffer. Sliding-window
// tests assert it stays flat across evict+append cycles.
func (r *Rows) Cap() int {
	if r.stride == 0 {
		return 0
	}
	return cap(r.buf) / r.stride
}

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Stride returns the padded row stride of the flat layout (a multiple
// of 4, >= Dim). Batched callers that stage query rows for
// EvalBatchFlat lay them out at this stride with zeroed padding.
func (r *Rows) Stride() int { return r.stride }

// Dim returns the feature dimension.
func (r *Rows) Dim() int { return r.d }

// Row returns a view of row i (without padding).
func (r *Rows) Row(i int) []float64 {
	gi := r.head + i
	return r.buf[gi*r.stride : gi*r.stride+r.d]
}

// padded returns row i including its zero padding, the shape the
// batched dot kernel wants.
func (r *Rows) padded(i int) []float64 {
	gi := r.head + i
	return r.buf[gi*r.stride : (gi+1)*r.stride]
}

// Matrix computes the Gram matrix K[i][j] = k(X[i], X[j]) exploiting
// symmetry: the lower triangle is built row-parallel and mirrored. The
// built-in kernels take a flat fast path — one X·Xᵀ pass plus, for
// RBF, the squared-norm identity ‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b fused
// with the exponential — while custom kernels fall back to per-pair
// Eval.
func Matrix(k Kernel, X [][]float64) *mat.Dense {
	return MatrixRows(k, NewRows(X))
}

// MatrixRows is Matrix for callers that already hold the flat layout.
func MatrixRows(k Kernel, r *Rows) *mat.Dense {
	return matrixRowsInto(k, r, mat.NewDense(r.n, r.n))
}

// MatrixRowsPooled is MatrixRows with the result drawn from pool, so
// callers that rebuild Gram matrices repeatedly (warm-start retrains,
// sliding windows) recycle the n² buffer instead of reallocating it.
// The scratch is returned to pool if a custom kernel's Eval panics
// mid-build, matching ExtendMatrixRows.
func MatrixRowsPooled(k Kernel, r *Rows, pool *mat.Pool) *mat.Dense {
	out := pool.GetDense(r.n, r.n)
	done := false
	defer func() {
		if !done {
			pool.PutDense(out)
		}
	}()
	matrixRowsInto(k, r, out)
	done = true
	return out
}

// matrixRowsInto fills out (n×n, contents arbitrary — every element is
// written) with the Gram matrix of r.
func matrixRowsInto(k Kernel, r *Rows, out *mat.Dense) *mat.Dense {
	switch kk := k.(type) {
	case Linear:
		gramDots(r, out, nil)
	case RBF:
		if kk.Gamma > 0 {
			gramDots(r, out, func(row []float64, i int) {
				mat.RBFRow(row, r.norms(), r.norms()[i], kk.Gamma)
			})
			break
		}
		gramGeneric(k, r, out)
	case Poly:
		gramDots(r, out, func(row []float64, _ int) {
			powRow(row, kk.Scale, kk.Coef0, kk.Degree)
		})
	default:
		gramGeneric(k, r, out)
	}
	mat.MirrorLower(out)
	return out
}

// gramTile is the panel-row tile of the paired Gram walk: one tile of
// stored rows stays L1-resident while every row pair in a worker's
// range streams over it (matching mat's engine tiling).
const gramTile = 48

// gramDots fills the lower triangle of out with pairwise dot products,
// applying transform (if any) to each finished row. Rows are processed
// in globally-aligned pairs through the two-row register tile
// (mat.DotBatch2) with the stored-row walk tiled for L1 reuse; pairing
// is by absolute row index and the tile grid is fixed, so every
// element's reduction path — and therefore its bits — is independent
// of how Parfor splits the pair ranges.
func gramDots(r *Rows, out *mat.Dense, transform func(row []float64, i int)) {
	n := r.n
	flat, stride := r.flat(), r.stride
	pairs := (n + 1) / 2
	mat.Parfor(pairs, func(plo, phi int) {
		for t0 := 0; t0 < 2*phi; t0 += gramTile {
			// Pair p owns rows 2p and 2p+1; its dot columns run
			// [0, 2p+1), so tile t0 only feeds pairs with p >= t0/2.
			for p := max(plo, t0/2); p < phi; p++ {
				i := 2 * p
				hi := min(i+1, t0+gramTile)
				if hi <= t0 {
					continue
				}
				seg := hi - t0
				if i+1 < n {
					mat.DotBatch2(r.padded(i), r.padded(i+1), flat[t0*stride:], stride, seg,
						out.Row(i)[t0:], out.Row(i + 1)[t0:])
				} else {
					mat.DotBatch(r.padded(i), flat[t0*stride:], stride, seg, out.Row(i)[t0:])
				}
			}
		}
		for p := plo; p < phi; p++ {
			i := 2 * p
			if i+1 < n {
				// The paired pass covers columns [0, 2p+1) of both
				// rows; the odd row's diagonal is its self dot (the
				// zero padding contributes nothing).
				x1 := r.padded(i + 1)
				out.Row(i + 1)[i+1] = mat.Dot(x1, x1)
			}
			if transform != nil {
				transform(out.Row(i)[:i+1], i)
				if i+1 < n {
					transform(out.Row(i + 1)[:i+2], i+1)
				}
			}
		}
	})
}

// ExtendMatrixRows extends a Gram matrix previously computed over the
// first oldN rows of r to cover all of r (after Rows.Append), reusing
// every stored kernel value: only the border — new rows against the
// whole set — is evaluated, with the fused RBF/poly transforms applied
// to border rows only. old holds the stored values in its trailing
// oldN×oldN block, behind skip leading rows and columns that belong to
// rows since evicted from the window (skip = 0: old is exactly the
// matrix MatrixRows produced) — so a slide that evicts and appends
// copies the surviving block once, straight into its final place. The
// result is a fresh n×n matrix (drawn from pool when given); old is not
// modified, so the caller decides when to recycle it.
//
// The scratch matrix is handed back to pool when a custom kernel's
// Eval panics during the border evaluation (the one error path of
// this function — shape misuse panics before anything is drawn), so a
// failed extension does not strand a Gram-sized buffer outside the
// pool. The guarantee covers the panic unwinding this goroutine: on
// multi-core runs large borders evaluate on Parfor workers, where an
// Eval panic is fatal to the process and pooling is moot anyway.
func ExtendMatrixRows(k Kernel, r *Rows, oldN int, old *mat.Dense, skip int, pool *mat.Pool) *mat.Dense {
	n := r.n
	if oldN > n || skip < 0 || old.Rows() != skip+oldN || old.Cols() != skip+oldN {
		panic(fmt.Sprintf("kernel: extending %dx%d Gram less %d rows to %d rows", old.Rows(), old.Cols(), skip, n))
	}
	out := pool.GetDense(n, n)
	done := false
	defer func() {
		if !done {
			pool.PutDense(out)
		}
	}()
	mat.Parfor(oldN, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i)[:oldN], old.Row(skip + i)[skip:])
		}
	})
	transform := borderTransform(k, r)
	mat.Parfor(n-oldN, func(lo, hi int) {
		for i := oldN + lo; i < oldN+hi; i++ {
			row := out.Row(i)[:i+1]
			if transform == nil && !isFlatKernel(k) {
				for j := 0; j <= i; j++ {
					row[j] = k.Eval(r.Row(i), r.Row(j))
				}
				continue
			}
			mat.DotBatch(r.padded(i), r.flat(), r.stride, i+1, row)
			if transform != nil {
				transform(row, r.norms(), r.norms()[i])
			}
		}
	})
	// Mirror only the new columns; the old block is already symmetric.
	mat.Parfor(n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			drow := out.Row(j)
			for i := max(j+1, oldN); i < n; i++ {
				drow[i] = out.At(i, j)
			}
		}
	})
	done = true
	return out
}

// GramEvictRows shrinks a Gram matrix after the leading k rows left
// the window: the surviving (n−k)×(n−k) block is copied into a fresh
// matrix (drawn from pool when given) without re-evaluating a single
// kernel — K[i][j] over the survivors is exactly the trailing block.
// g is not modified, so the caller decides when to recycle it.
func GramEvictRows(g *mat.Dense, k int, pool *mat.Pool) *mat.Dense {
	n := g.Rows()
	if g.Cols() != n || k < 0 || k > n {
		panic(fmt.Sprintf("kernel: evicting %d rows of a %dx%d Gram", k, g.Rows(), g.Cols()))
	}
	m := n - k
	out := pool.GetDense(m, m)
	mat.Parfor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i), g.Row(k + i)[k:k+m])
		}
	})
	return out
}

// GramBorder fills the bordered blocks of the Gram matrix for the rows
// appended after oldN: a21 (m×oldN) holds k(new_i, old_j) and a22
// (m×m, lower triangle only) holds k(new_i, new_j). This is the shape
// mat.Cholesky.Extend consumes, letting incremental retrainers grow
// their factor without materializing the full extended Gram.
func GramBorder(k Kernel, r *Rows, oldN int, a21, a22 *mat.Dense) {
	m := r.n - oldN
	if a21.Rows() != m || a21.Cols() != oldN || a22.Rows() != m || a22.Cols() != m {
		panic(fmt.Sprintf("kernel: GramBorder blocks %dx%d/%dx%d for %d+%d rows",
			a21.Rows(), a21.Cols(), a22.Rows(), a22.Cols(), oldN, m))
	}
	transform := borderTransform(k, r)
	flat := transform != nil || isFlatKernel(k)
	mat.Parfor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gi := oldN + i
			r21 := a21.Row(i)
			r22 := a22.Row(i)[:i+1]
			if !flat {
				for j := 0; j < oldN; j++ {
					r21[j] = k.Eval(r.Row(gi), r.Row(j))
				}
				for j := 0; j <= i; j++ {
					r22[j] = k.Eval(r.Row(gi), r.Row(oldN+j))
				}
				continue
			}
			mat.DotBatch(r.padded(gi), r.flat(), r.stride, oldN, r21)
			mat.DotBatch(r.padded(gi), r.flat()[oldN*r.stride:], r.stride, i+1, r22)
			if transform != nil {
				transform(r21, r.norms(), r.norms()[gi])
				transform(r22, r.norms()[oldN:], r.norms()[gi])
			}
		}
	})
}

// borderTransform returns the in-place map from dot products to kernel
// values for the built-in non-linear kernels (norms is the slice of
// squared norms aligned with the row being transformed), or nil when
// the dot products are the kernel values (Linear) or the kernel needs
// the per-pair fallback.
func borderTransform(k Kernel, r *Rows) func(row, norms []float64, selfNorm float64) {
	switch kk := k.(type) {
	case RBF:
		if kk.Gamma > 0 {
			return func(row, norms []float64, selfNorm float64) {
				mat.RBFRow(row, norms, selfNorm, kk.Gamma)
			}
		}
	case Poly:
		return func(row, _ []float64, _ float64) {
			powRow(row, kk.Scale, kk.Coef0, kk.Degree)
		}
	}
	return nil
}

// isFlatKernel reports whether plain dot products are the kernel
// values (so the flat path applies with no transform).
func isFlatKernel(k Kernel) bool {
	switch kk := k.(type) {
	case Linear:
		return true
	case RBF:
		return kk.Gamma > 0 // only the transform-less case falls through
	}
	return false
}

// gramGeneric fills the lower triangle with per-pair Eval calls (the
// pre-engine path, kept for custom kernels).
func gramGeneric(k Kernel, r *Rows, out *mat.Dense) {
	mat.Parfor(r.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out.Row(i)
			for j := 0; j <= i; j++ {
				row[j] = k.Eval(r.Row(i), r.Row(j))
			}
		}
	})
}

// powRow applies v -> (scale*v + coef0)^degree in place, using
// repeated multiplication for small integer degrees (math.Pow costs
// more than the dot product it follows).
func powRow(vals []float64, scale, coef0, degree float64) {
	if n := int(degree); degree == float64(n) && n >= 0 && n <= 8 {
		for j, v := range vals {
			base := scale*v + coef0
			p := 1.0
			for e := 0; e < n; e++ {
				p *= base
			}
			vals[j] = p
		}
		return
	}
	for j, v := range vals {
		vals[j] = math.Pow(scale*v+coef0, degree)
	}
}

// EvalBatchFlat computes out[i*Len()+j] = k(r.X[j], q_i) for qn query
// rows against every stored row: the tiled multi-query evaluation path
// behind PredictBatch. q holds the queries stride-padded at r.Stride()
// with zeroed padding; qnorms holds their squared norms (only read for
// RBF; may be nil otherwise); out must have qn*Len() room.
//
// Built-in kernels run query pairs through the two-row register tile
// (mat.DotBatch2) with the stored-row walk tiled so one tile of stored
// rows, loaded into L1 once, serves every query pair in a worker's
// range — amortizing panel traffic across the batch instead of
// re-streaming the whole store per query, which is what a loop over
// EvalInto does. Pairing is by absolute query index and the tile grid
// is fixed, so results are bitwise independent of the Parfor split.
// Custom kernels fall back to per-row Eval.
func EvalBatchFlat(k Kernel, r *Rows, q, qnorms []float64, qn int, out []float64) {
	n := r.n
	if qn <= 0 || n == 0 {
		return
	}
	flat, stride := r.flat(), r.stride
	transform := borderTransform(k, r)
	if transform == nil && !isFlatKernel(k) {
		mat.Parfor(qn, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := q[i*stride : i*stride+r.d]
				row := out[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					row[j] = k.Eval(r.Row(j), x)
				}
			}
		})
		return
	}
	pairs := (qn + 1) / 2
	mat.Parfor(pairs, func(plo, phi int) {
		for t0 := 0; t0 < n; t0 += gramTile {
			seg := min(gramTile, n-t0)
			panel := flat[t0*stride:]
			for p := plo; p < phi; p++ {
				i := 2 * p
				x0 := q[i*stride : (i+1)*stride]
				if i+1 < qn {
					x1 := q[(i+1)*stride : (i+2)*stride]
					mat.DotBatch2(x0, x1, panel, stride, seg,
						out[i*n+t0:], out[(i+1)*n+t0:])
				} else {
					mat.DotBatch(x0, panel, stride, seg, out[i*n+t0:])
				}
			}
		}
		if transform != nil {
			for p := plo; p < phi; p++ {
				i := 2 * p
				var qn0 float64
				if qnorms != nil {
					qn0 = qnorms[i]
				}
				transform(out[i*n:(i+1)*n], r.norms(), qn0)
				if i+1 < qn {
					if qnorms != nil {
						qn0 = qnorms[i+1]
					}
					transform(out[(i+1)*n:(i+2)*n], r.norms(), qn0)
				}
			}
		}
	})
}

// EvalInto computes out[i] = k(r.X[i], x) for every stored row without
// allocating: the batched prediction path behind svm.Predict,
// lssvm.Predict and ml.PredictAll. Built-in kernels go through the
// flat engine; custom kernels fall back to per-row Eval.
func EvalInto(k Kernel, r *Rows, x, out []float64) {
	switch kk := k.(type) {
	case Linear:
		mat.DotBatch(x, r.flat(), r.stride, r.n, out)
	case RBF:
		if kk.Gamma > 0 {
			mat.DotBatch(x, r.flat(), r.stride, r.n, out)
			var xn float64
			for _, v := range x {
				xn += v * v
			}
			mat.RBFRow(out, r.norms(), xn, kk.Gamma)
			return
		}
		for i := 0; i < r.n; i++ {
			out[i] = k.Eval(r.Row(i), x)
		}
	case Poly:
		mat.DotBatch(x, r.flat(), r.stride, r.n, out)
		powRow(out[:r.n], kk.Scale, kk.Coef0, kk.Degree)
	default:
		for i := 0; i < r.n; i++ {
			out[i] = k.Eval(r.Row(i), x)
		}
	}
}
