package mat

// Bordered Cholesky extension: when a factored SPD system grows by m
// rows (new training data arriving in an incremental retrain), the new
// factor is
//
//	[ A   A21ᵀ ]      [ L    0   ]
//	[ A21 A22  ]  =>  [ L21  L22 ]
//
// with L21 solving L21·Lᵀ = A21 (a triangular panel solve against the
// existing factor) and L22 the factor of the Schur complement
// A22 − L21·L21ᵀ. Cost is O(n²·m + m³) against O((n+m)³/3) for a
// from-scratch factorization — retraining cost scales with the new
// rows, not the history. Both heavy stages run through the same
// batched dot kernel and Parfor scheme as NewCholesky, so results stay
// bitwise deterministic regardless of GOMAXPROCS.

// GrowCap returns the factor capacity reserved for a system of n rows:
// an eighth spare plus a constant, so the typical incremental batches
// extend the factor fully in place and repeated regrowth stays
// geometric. Learners size a fresh factor with it (NewCholeskyGrow) and
// Extend regrows to it, so a factor never owns more than
// (9n/8 + 32)² elements — the buffer is square, so spare rows cost
// their square in bytes.
func GrowCap(n int) int { return n + n/8 + 32 }

// Extend grows the factorization in place from the current n×n system
// to the bordered (n+m)×(n+m) system, given the border blocks
// a21 (m×n: new rows against the old ones) and a22 (m×m: new against
// new; only its lower triangle is read). On success the receiver
// factors the extended matrix; on ErrNotPositiveDefinite the receiver
// is unchanged and still factors the original system.
//
// pool (optional, nil ok) supplies the larger buffer when the factor
// outgrows its headroom and receives the old one back.
func (c *Cholesky) Extend(a21, a22 *Dense, pool *Pool) error {
	m := a21.rows
	if a21.cols != c.n || a22.rows != m || a22.cols != m {
		return ErrShape
	}
	if m == 0 {
		return nil
	}
	n := c.n
	nn := n + m
	c.reserve(nn, pool)
	ld := c.stride
	d := c.base()

	// Stage the border inside the factor storage: row n+i holds
	// [A21_i | lower(A22)_i].
	for i := 0; i < m; i++ {
		copy(d[(n+i)*ld:(n+i)*ld+n], a21.Row(i))
		copy(d[(n+i)*ld+n:(n+i)*ld+n+i+1], a22.Row(i)[:i+1])
	}

	// Panel solve L21·Lᵀ = A21, one independent row per new point,
	// blocked column-outer/rows-inner: the cholBlock-wide L panel a
	// block touches stays cache-hot across all m new rows instead of
	// being re-streamed per row (with many new rows the solve is
	// otherwise memory-bound on the factor). The subtraction of
	// already-solved column blocks runs through DotBatch; only the
	// in-block diagonal solve is scalar.
	for j0 := 0; j0 < n; j0 += cholBlock {
		j1 := min(j0+cholBlock, n)
		Parfor(m, func(lo, hi int) {
			var buf [cholBlock]float64
			for i := n + lo; i < n+hi; i++ {
				irow := d[i*ld : i*ld+n]
				if j0 > 0 {
					dots := buf[:j1-j0]
					DotBatch(irow[:j0], d[j0*ld:], ld, j1-j0, dots)
					for t, v := range dots {
						irow[j0+t] -= v
					}
				}
				for cc := j0; cc < j1; cc++ {
					crow := d[cc*ld : cc*ld+cc]
					s := irow[cc]
					for k := j0; k < cc; k++ {
						s -= irow[k] * crow[k]
					}
					irow[cc] = s / d[cc*ld+cc]
				}
			}
		})
	}

	// Schur complement: A22 − L21·L21ᵀ, lower triangle only.
	Parfor(m, func(lo, hi int) {
		buf := make([]float64, hi)
		for i := n + lo; i < n+hi; i++ {
			cnt := i - n + 1
			dots := buf[:cnt]
			DotBatch(d[i*ld:i*ld+n], d[n*ld:], ld, cnt, dots)
			irow := d[i*ld+n : i*ld+i+1]
			for t, v := range dots {
				irow[t] -= v
			}
		}
	})

	// Factor the m×m Schur block in place; its rows start at offset
	// n*ld+n with the same stride, exactly the sub-view cholFactor
	// handles. On failure the new rows are simply abandoned: nothing
	// above row n was written, so the original factor is intact.
	if err := cholFactor(d[n*ld+n:], m, ld); err != nil {
		return err
	}
	c.n = nn
	return nil
}

// Truncate drops the trailing rows of the factorization, the inverse
// of Extend: the leading n×n block of L is exactly the factor of the
// leading n×n block of A, so shrinking is just forgetting the border.
// Callers use it to roll back an Extend whose follow-up work failed.
func (c *Cholesky) Truncate(n int) {
	if n < 0 || n > c.n {
		panic(ErrShape)
	}
	c.n = n
}

// reserve guarantees the factor buffer holds nn rows past the current
// origin. The cheap outs come first: enough headroom already (the
// common case — repeated small appends never copy), then reclaiming
// the rows earlier Downdates abandoned in front of the origin
// (compact: one triangle copy per capacity-ful of evictions). Only
// when the buffer is genuinely too small does it reallocate, at
// GrowCap(nn) rows.
func (c *Cholesky) reserve(nn int, pool *Pool) {
	if c.origin+nn <= c.stride {
		return
	}
	if nn <= c.stride {
		c.compact()
		return
	}
	newCap := GrowCap(nn)
	nd := pool.GetVec(newCap * newCap)
	d := c.base()
	for i := 0; i < c.n; i++ {
		copy(nd[i*newCap:i*newCap+i+1], d[i*c.stride:i*c.stride+i+1])
	}
	pool.PutVec(c.data)
	c.data = nd
	c.stride = newCap
	c.origin = 0
}
