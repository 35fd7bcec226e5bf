package svm

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/ml/kernel"
)

// Warm-started incremental retraining: Fit retains the standardized
// rows, the bias-folded Gram and the full dual vector, so extending the
// fit re-evaluates only the kernel border (new rows against the
// surviving window) and restarts the coordinate descent from the
// previous β rescaled to the recomputed target standardization. The
// dual is strictly convex for positive-definite K' = K + 1, so the warm
// solve converges to exactly the optimum a cold solve on the combined
// window reaches — the seed only buys sweeps — which is what pins the
// parity tests at 1e-8. Evictions reuse the trailing Gram block without
// re-evaluating a single kernel value.

// Update implements ml.IncrementalRegressor: new training runs extend
// the fitted model in place. The feature standardizer and kernel are
// frozen at the initial Fit (a from-scratch Fit with
// Options.Standardizer pinned to the same statistics reproduces the
// updated model); the target standardization is recomputed exactly
// over the combined history. On error the model is unchanged and still
// usable.
func (m *Model) Update(Xnew [][]float64, ynew []float64) error {
	return m.SlideWindow(Xnew, ynew, 0)
}

// UpdateWindow implements ml.WindowedRegressor: the model retains its
// training window, so only the evicted-row count matters.
func (m *Model) UpdateWindow(Xnew [][]float64, ynew []float64, evictX [][]float64, evictY []float64) error {
	if len(evictX) != len(evictY) {
		return fmt.Errorf("%w: %d evicted rows vs %d targets", ml.ErrDimension, len(evictX), len(evictY))
	}
	return m.SlideWindow(Xnew, ynew, len(evictX))
}

// SlideWindow extends the fitted model with the new rows and evicts
// the evict oldest ones — the bounded-memory retraining step behind
// core.Pipeline's WindowPolicy. The result matches a from-scratch Fit
// on the surviving window with the same frozen standardizer, at a cost
// scaling with the rows moved rather than the history. At least one
// row must survive.
//
// Standardizer drift past Options.DriftThreshold (without a pinned
// standardizer) abandons the incremental path and refits from scratch
// on the surviving window with fresh statistics.
func (m *Model) SlideWindow(Xnew [][]float64, ynew []float64, evict int) error {
	if !m.fitted {
		return ml.ErrNotFitted
	}
	if m.trainRows == nil || m.trainRows.Len() != len(m.yRaw) || len(m.yRaw) == 0 {
		return fmt.Errorf("svm: restored model carries no training set; refit before Update")
	}
	oldN := m.trainRows.Len()
	if evict < 0 || evict > oldN {
		return fmt.Errorf("svm: evicting %d of %d training rows", evict, oldN)
	}
	mNew := len(Xnew)
	if mNew == 0 && len(ynew) != 0 {
		return fmt.Errorf("%w: 0 rows vs %d targets", ml.ErrDimension, len(ynew))
	}
	if mNew > 0 {
		dim, err := ml.CheckTrainingSet(Xnew, ynew)
		if err != nil {
			return err
		}
		if dim != m.dim {
			return fmt.Errorf("svm: appended rows have %d features, want %d", dim, m.dim)
		}
	}
	if oldN-evict+mNew < 1 {
		return fmt.Errorf("svm: window slide leaves no training rows")
	}
	if mNew == 0 && evict == 0 {
		return nil
	}
	if m.gram == nil {
		m.rebuildGram()
	}

	var drift float64
	var Xs [][]float64
	if mNew > 0 {
		Xs = m.std.ApplyAll(Xnew)
		drift = ml.DriftScore(Xs)
		if m.opts.DriftThreshold > 0 && drift > m.opts.DriftThreshold && m.opts.Standardizer == nil {
			if err := m.refitWindow(evict, Xnew, ynew); err != nil {
				return err
			}
			m.lastUpdate = ml.UpdateInfo{DriftScore: drift, DriftRefit: true, Evicted: evict}
			return nil
		}
		// Stage the new rows in the store; nothing below can fail, so
		// no rollback path is needed past this point.
		if err := m.trainRows.Append(Xs); err != nil {
			return err
		}
	}

	// One copy of the stored bias-folded Gram's surviving trailing
	// block (the evicted rows simply are not copied; the survivors'
	// folded +1 rides along) into the next Gram, whose border against
	// the surviving window is evaluated raw and folded below. Neither
	// helper mutates its input, so the previous Gram stays valid until
	// the commit.
	old := m.gram
	next := old
	if mNew > 0 {
		next = kernel.ExtendMatrixRows(m.kern, m.trainRows.Tail(evict), oldN-evict, old, evict, mat.Shared)
		foldBorderBias(next, oldN-evict)
	} else if evict > 0 {
		next = kernel.GramEvictRows(old, evict, mat.Shared)
	}

	n := oldN - evict + mNew
	newY := make([]float64, 0, n)
	newY = append(newY, m.yRaw[evict:]...)
	newY = append(newY, ynew...)
	yMean := ml.Mean(newY)
	yStd := math.Sqrt(ml.Variance(newY))
	if yStd == 0 {
		yStd = 1
	}
	ys := make([]float64, n)
	for i, v := range newY {
		ys[i] = (v - yMean) / yStd
	}

	beta0 := seedBeta(m.betaFull[evict:], m.yStd/yStd, m.opts.C, n)
	beta, pass := solveDualFrom(next, ys, beta0, m.opts)

	// Commit.
	if next != old {
		mat.Shared.PutDense(old)
		m.gram = next
	}
	m.trainRows.EvictFront(evict)
	m.yRaw = newY
	m.yMean, m.yStd = yMean, yStd
	m.betaFull = beta
	m.Passes = pass
	m.rebuildSupports()
	m.lastUpdate = ml.UpdateInfo{Incremental: true, DriftScore: drift, Evicted: evict}
	return nil
}

// LastUpdate implements ml.UpdateReporter.
func (m *Model) LastUpdate() ml.UpdateInfo { return m.lastUpdate }

// PinPreprocessing implements ml.PreprocessPinner: the receiver's next
// Fit reuses src's frozen feature standardizer, so a from-scratch fit
// on the combined window reproduces an incrementally updated model
// exactly — the cross-check behind the update parity tests.
func (m *Model) PinPreprocessing(src ml.Regressor) error {
	s, ok := src.(*Model)
	if !ok {
		return fmt.Errorf("svm: cannot pin preprocessing from %T", src)
	}
	if !s.fitted {
		return ml.ErrNotFitted
	}
	m.opts.Standardizer = &kernel.Standardizer{
		Mean: append([]float64(nil), s.std.Mean...),
		Std:  append([]float64(nil), s.std.Std...),
	}
	return nil
}

// seedBeta rescales the surviving dual coefficients to the recomputed
// target standardization (ys scales by oldStd/newStd; the mean shift
// moves only the folded bias, which the solver re-balances) and clips
// them back into the box — the warm-start seed. Entries past the
// survivors (the appended rows) start at zero.
func seedBeta(prev []float64, scale, C float64, n int) []float64 {
	beta0 := make([]float64, n)
	for i, b := range prev {
		v := b * scale
		if v > C {
			v = C
		} else if v < -C {
			v = -C
		}
		beta0[i] = v
	}
	return beta0
}

// foldBorderBias folds the +1 bias into the Gram entries
// ExtendMatrixRows evaluated raw: the full rows of the appended block
// and their mirrored columns in the surviving rows. The copied old
// block kept its fold.
func foldBorderBias(g *mat.Dense, oldN int) {
	n := g.Rows()
	for i := oldN; i < n; i++ {
		row := g.Row(i)
		for j := range row {
			row[j]++
		}
	}
	for i := 0; i < oldN; i++ {
		row := g.Row(i)
		for j := oldN; j < n; j++ {
			row[j]++
		}
	}
}

// rebuildGram re-evaluates the bias-folded Gram from the stored
// training rows — the one-time O(n²·d) cost a deserialized model pays
// before its first incremental update. Pool-backed like Fit's, so the
// later Update's PutDense actually retains it.
func (m *Model) rebuildGram() {
	g := kernel.MatrixRowsPooled(m.kern, m.trainRows, mat.Shared)
	foldBias(g)
	m.gram = g
}

// refitWindow retrains from scratch on the surviving window plus the
// new rows, with freshly fitted statistics — the drift-triggered refit
// path. The surviving rows are de-standardized back to raw feature
// space first; on error the previous fit stays intact.
func (m *Model) refitWindow(evict int, Xnew [][]float64, ynew []float64) error {
	n := m.trainRows.Len()
	X := make([][]float64, 0, n-evict+len(Xnew))
	for i := evict; i < n; i++ {
		xs := m.trainRows.Row(i)
		raw := make([]float64, m.dim)
		for j, v := range xs {
			raw[j] = v*m.std.Std[j] + m.std.Mean[j]
		}
		X = append(X, raw)
	}
	X = append(X, Xnew...)
	y := make([]float64, 0, n-evict+len(ynew))
	y = append(y, m.yRaw[evict:]...)
	y = append(y, ynew...)
	return m.Fit(X, y)
}

// RowCap returns the row capacity of the flat training-row store (0
// before Fit). Sliding-window tests assert it stays flat across
// evict+append cycles.
func (m *Model) RowCap() int {
	if m.trainRows == nil {
		return 0
	}
	return m.trainRows.Cap()
}

var (
	_ ml.IncrementalRegressor = (*Model)(nil)
	_ ml.WindowedRegressor    = (*Model)(nil)
	_ ml.UpdateReporter       = (*Model)(nil)
	_ ml.PreprocessPinner     = (*Model)(nil)
)
