package lssvm

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/ml"
)

// Sliding-window retraining: the grow-only incremental path (Update)
// made retrain cost scale with the new rows; this file makes *memory*
// scale with the window. SlideWindow appends new training runs and
// evicts the oldest ones in one O(n²·moved) operation — the kernel
// border extends the factor in place (mat.Cholesky.Extend), the
// evicted rows leave it through the Householder downdating sweep
// (mat.Cholesky.Downdate), the flat row store advances its ring head
// (kernel.Rows.EvictFront), and only the two O(n²) triangular solves
// re-run. Steady-state slides run entirely inside the buffer headroom
// the initial Fit reserved: no growth in factor or row-store capacity,
// which is what lets a deployment retrain continuously for weeks.

// Downdate evicts the k oldest training rows from the fitted model:
// the factor shrinks via the downdating sweep, the row store advances
// its head, the target standardization is recomputed exactly over the
// surviving window, and the system re-solves. Equivalent to
// SlideWindow(nil, nil, k).
func (m *Model) Downdate(k int) error { return m.SlideWindow(nil, nil, k) }

// SlideWindow extends the fitted model with the new rows and evicts
// the evict oldest ones — the bounded-memory retraining step behind
// core.Pipeline's WindowPolicy. The result matches a from-scratch Fit
// on the surviving window (evicted prefix dropped, new rows appended)
// with the same frozen standardizer, at a cost scaling with the rows
// moved rather than the history. At least one row must survive.
//
// Standardizer drift is handled as in Update: past
// Options.DriftThreshold (and without a pinned standardizer) the
// incremental path is abandoned and the model refits from scratch on
// the surviving window with fresh statistics — the window, not the
// full history, so the refit is bounded too.
//
// On error the model is unchanged and still usable; at worst the
// cached factor is dropped and rebuilt lazily by the next successful
// update.
func (m *Model) SlideWindow(Xnew [][]float64, ynew []float64, evict int) error {
	if !m.fitted {
		return ml.ErrNotFitted
	}
	oldN := m.trainRows.Len()
	if evict < 0 || evict > oldN {
		return fmt.Errorf("lssvm: evicting %d of %d training rows", evict, oldN)
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
			return fmt.Errorf("lssvm: appended rows have %d features, want %d", dim, m.dim)
		}
	}
	if oldN-evict+mNew < 1 {
		return fmt.Errorf("lssvm: window slide leaves no training rows")
	}
	if mNew == 0 && evict == 0 {
		return nil
	}
	if m.chol == nil {
		if err := m.rebuildFactor(); err != nil {
			return err
		}
	}

	var drift float64
	var Xs [][]float64
	if mNew > 0 {
		Xs = m.std.ApplyAll(Xnew)
		drift = driftScore(Xs)
		if m.opts.DriftThreshold > 0 && drift > m.opts.DriftThreshold && m.opts.Standardizer == nil {
			if err := m.refitWindow(evict, Xnew, ynew); err != nil {
				return err
			}
			m.lastUpdate = ml.UpdateInfo{DriftScore: drift, DriftRefit: true, Evicted: evict}
			return nil
		}
		// Stage the new rows in the store first (rolled back by
		// Truncate on any failure below); the factor work happens on
		// the already-shrunk system, which is cheaper at both ends.
		if err := m.trainRows.Append(Xs); err != nil {
			return err
		}
	}
	oldDiagAdd := m.diagAdd
	if evict > 0 {
		shift, err := m.chol.Downdate(evict, mat.Shared)
		if err != nil {
			// The sweep mutates in place, so the factor is lost — but
			// the training data is not: roll the rows back and drop the
			// factor cache; the next update rebuilds it lazily.
			m.trainRows.Truncate(oldN)
			m.chol = nil
			return fmt.Errorf("lssvm: downdating kernel system: %w", err)
		}
		// A fallback re-factorization may have jittered the surviving
		// block; future borders must carry the same total shift. (The
		// shift is rolled back with the factor if a later step fails —
		// a lazily rebuilt factor recomputes its own.)
		m.diagAdd += shift
	}
	if mNew > 0 {
		// The kernel border is evaluated against the surviving window
		// only, through a zero-copy tail view of the row store (the
		// eviction itself commits last).
		if err := m.extendFactor(m.trainRows.Tail(evict), oldN-evict, mNew); err != nil {
			m.trainRows.Truncate(oldN)
			m.chol = nil // downdated but not extended: no longer matches the rows
			m.diagAdd = oldDiagAdd
			return err
		}
	}
	newY := make([]float64, 0, oldN-evict+mNew)
	newY = append(newY, m.yRaw[evict:]...)
	newY = append(newY, ynew...)
	sol, err := solveSystem(m.chol, newY)
	if err != nil {
		m.trainRows.Truncate(oldN)
		m.chol = nil
		m.diagAdd = oldDiagAdd
		return err
	}
	// Commit: the row store's head advances past the evicted prefix
	// (O(1); the space is reclaimed by a later append's compaction).
	m.trainRows.EvictFront(evict)
	m.yRaw = newY
	m.applySolution(sol)
	m.lastUpdate = ml.UpdateInfo{Incremental: true, DriftScore: drift, Evicted: evict}
	return nil
}

// UpdateWindow implements ml.WindowedRegressor: the model retains its
// training window, so only the evicted-row count matters.
func (m *Model) UpdateWindow(Xnew [][]float64, ynew []float64, evictX [][]float64, evictY []float64) error {
	if len(evictX) != len(evictY) {
		return fmt.Errorf("%w: %d evicted rows vs %d targets", ml.ErrDimension, len(evictX), len(evictY))
	}
	return m.SlideWindow(Xnew, ynew, len(evictX))
}

var _ ml.WindowedRegressor = (*Model)(nil)

// refitWindow retrains from scratch on the surviving window plus the
// new rows, with freshly fitted statistics — the drift-triggered refit
// of the sliding path. The surviving rows are de-standardized back to
// raw feature space first; on error the previous fit stays intact.
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

// FactorCap returns the capacity dimension of the retained Cholesky
// factor and RowCap the row capacity of the flat training-row store
// (0 when the factor is not materialized). Sliding-window tests and
// benchmarks assert both stay flat across slide cycles.
func (m *Model) FactorCap() int {
	if m.chol == nil {
		return 0
	}
	return m.chol.Cap()
}

// RowCap returns the row capacity of the flat training-row store.
func (m *Model) RowCap() int {
	if m.trainRows == nil {
		return 0
	}
	return m.trainRows.Cap()
}
