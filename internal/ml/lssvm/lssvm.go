// Package lssvm implements the Least-Squares Support-Vector Machine
// (Suykens & Vandewalle 1999; the paper's "SVM2"): the SVM variant whose
// inequality constraints become equalities, so training reduces to one
// symmetric linear system over the kernel matrix
//
//	[ 0   1ᵀ        ] [ b ]   [ 0 ]
//	[ 1   K + I/γ   ] [ α ] = [ y ]
//
// solved here by block elimination with two Cholesky solves:
// A·η = 1, A·ν = y, b = (1ᵀν)/(1ᵀη), α = ν − b·η. Every training point
// becomes a support vector, which is why LS-SVM training cost is cubic in
// n — the reason it sits near plain SVM in the paper's Table III.
//
// The cubic cost is paid once: the factor is retained with growth
// headroom, and Update extends the fitted model with new training runs
// at O(n²·m) — the kernel border is evaluated against the flat row
// store, the factor grows in place via mat.Cholesky.Extend, and only
// the two O(n²) triangular solves re-run. This is the incremental
// retraining path behind core.Pipeline.Update.
package lssvm

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/ml/kernel"
	"repro/internal/ml/packed"
)

// Options tunes the learner.
type Options struct {
	// Gamma is the regularization weight γ (larger = less smoothing).
	Gamma float64
	// Kernel computes similarities on standardized inputs; nil selects
	// RBF with the 1/d heuristic.
	Kernel kernel.Kernel
	// Standardizer optionally fixes the feature standardization
	// instead of fitting it from the training data. Incremental
	// updates always freeze the initial fit's standardizer (changing
	// it would invalidate every cached kernel value); pinning it here
	// additionally lets a from-scratch Fit reproduce an incrementally
	// updated model exactly, which is how the parity tests cross-check
	// Update.
	Standardizer *kernel.Standardizer
	// DriftThreshold enables standardizer drift detection in Update:
	// when the appended rows' per-feature statistics deviate from the
	// frozen standardizer by more than this much — mean shifted by more
	// than DriftThreshold frozen σ, or σ ratio off 1 by more than
	// DriftThreshold — the incremental path is abandoned and the model
	// refits from scratch on the combined history with freshly fitted
	// statistics (unless Standardizer is pinned, which wins). 0
	// disables detection; the outcome of each Update is reported via
	// LastUpdate. Batches smaller than ml.DriftSigmaMinBatch rows score
	// only the mean shift — their sample σ is too noisy to trust.
	DriftThreshold float64
}

// DefaultOptions returns common LS-SVM settings.
func DefaultOptions() Options { return Options{Gamma: 10} }

// Validate reports option errors.
func (o *Options) Validate() error {
	if o.Gamma <= 0 {
		return fmt.Errorf("lssvm: Gamma must be positive, got %v", o.Gamma)
	}
	if o.DriftThreshold < 0 {
		return fmt.Errorf("lssvm: DriftThreshold must be non-negative, got %v", o.DriftThreshold)
	}
	return nil
}

// Model is a fitted LS-SVM.
type Model struct {
	opts Options
	kern kernel.Kernel
	std  *kernel.Standardizer

	// trainRows is the flat layout shared by training (Gram), the
	// batched prediction path, and serialization — the only retained
	// copy of the standardized training set (every point is a support
	// vector, so this dominates model memory).
	trainRows *kernel.Rows
	alpha     []float64
	bias      float64

	yMean, yStd float64
	dim         int
	fitted      bool

	// Incremental-retraining state: the Cholesky factor of the
	// regularized kernel system (grown in place by Update), the total
	// diagonal shift it was factored with (ridge plus any jitter), and
	// the raw targets, re-standardized over the combined history on
	// every update. chol is nil on a deserialized model and rebuilt
	// lazily by the first Update.
	chol    *mat.Cholesky
	diagAdd float64
	yRaw    []float64

	// lastUpdate reports what the latest Update call did (drift score
	// of the appended batch, incremental vs drift-triggered refit).
	lastUpdate ml.UpdateInfo
}

// New returns an unfitted LS-SVM.
func New(opts Options) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Model{opts: opts}, nil
}

// Name implements ml.Regressor; the paper's tables call this model "SVM2".
func (m *Model) Name() string { return "svm2" }

// Fit solves the LS-SVM linear system. The Cholesky factor of the
// regularized kernel matrix is retained (with spare capacity), so a
// later Update extends it at a cost scaling with the new rows.
func (m *Model) Fit(X [][]float64, y []float64) error {
	dim, err := ml.CheckTrainingSet(X, y)
	if err != nil {
		return err
	}
	n := len(X)

	std := m.opts.Standardizer
	if std == nil {
		std = kernel.FitStandardizer(X)
	} else if len(std.Mean) != dim || len(std.Std) != dim {
		return fmt.Errorf("lssvm: pinned standardizer has dimension %d, want %d", len(std.Mean), dim)
	}
	Xs := std.ApplyAll(X)

	kern := m.opts.Kernel
	if kern == nil {
		kern = kernel.RBF{Gamma: 1 / float64(dim)}
	}

	// The Gram is factorization scratch here — the factor copies the
	// triangle out — so it is drawn from and returned to the pool.
	rows := kernel.NewRows(Xs)
	a := kernel.MatrixRowsPooled(kern, rows, mat.Shared)
	ridge := 1 / m.opts.Gamma
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+ridge)
	}
	ch, jitter, err := mat.NewCholeskyJittered(a, mat.GrowCap(n), mat.Shared)
	mat.Shared.PutDense(a)
	if err != nil {
		return fmt.Errorf("lssvm: solving kernel system: %w", err)
	}
	sol, err := solveSystem(ch, y)
	if err != nil {
		return err
	}

	// Commit only now: a failure above leaves a previously fitted
	// model fully usable.
	m.std = std
	m.kern = kern
	m.trainRows = rows
	m.dim = dim
	m.chol = ch
	m.diagAdd = ridge + jitter
	m.yRaw = ml.CloneVector(y)
	m.applySolution(sol)
	m.fitted = true
	m.lastUpdate = ml.UpdateInfo{} // a fresh fit resets the update report
	return nil
}

// solution is the model state derived from a factor and raw targets.
type solution struct {
	alpha       []float64
	bias        float64
	yMean, yStd float64
}

// solveSystem derives the bias and dual coefficients from a factor and
// the raw targets: the targets are standardized over the full history,
// then the block elimination runs its two triangular solves — O(n²),
// the cheap tail of both Fit and Update. It mutates nothing, so
// callers commit results only on success.
func solveSystem(ch *mat.Cholesky, yRaw []float64) (solution, error) {
	n := len(yRaw)
	sol := solution{yMean: ml.Mean(yRaw), yStd: math.Sqrt(ml.Variance(yRaw))}
	if sol.yStd == 0 {
		sol.yStd = 1
	}
	ys := make([]float64, n)
	ones := make([]float64, n)
	for i, v := range yRaw {
		ys[i] = (v - sol.yMean) / sol.yStd
		ones[i] = 1
	}
	// One combined pass for both right-hand sides: the factor's memory
	// traffic dominates large solves and is paid once.
	eta, nu, err := ch.Solve2(ones, ys)
	if err != nil {
		return sol, fmt.Errorf("lssvm: solving kernel system: %w", err)
	}
	sumEta := 0.0
	sumNu := 0.0
	for i := 0; i < n; i++ {
		sumEta += eta[i]
		sumNu += nu[i]
	}
	if sumEta == 0 {
		return sol, fmt.Errorf("lssvm: degenerate system (1ᵀη = 0)")
	}
	sol.bias = sumNu / sumEta
	sol.alpha = nu
	for i := 0; i < n; i++ {
		sol.alpha[i] = nu[i] - sol.bias*eta[i]
	}
	return sol, nil
}

// applySolution installs a solved coefficient set.
func (m *Model) applySolution(sol solution) {
	m.alpha = sol.alpha
	m.bias = sol.bias
	m.yMean = sol.yMean
	m.yStd = sol.yStd
}

// Update implements ml.IncrementalRegressor: new training runs extend
// the fitted model in place instead of triggering a from-scratch
// retrain. The flat row store grows by the standardized new rows, the
// kernel border (new×old and new×new blocks only) is evaluated, and
// the Cholesky factor of the regularized system is extended with a
// bordered factorization — O(n²·m) for m new rows against O(n³/3) for
// a rebuild. The feature standardizer and kernel are frozen at the
// initial Fit (a from-scratch Fit with Options.Standardizer pinned to
// the same statistics reproduces the updated model); the target
// standardization is recomputed exactly over the combined history.
//
// On error the model is unchanged and still usable; a caller that
// needs the new data anyway should fall back to Fit on the combined
// training set.
func (m *Model) Update(Xnew [][]float64, ynew []float64) error {
	if !m.fitted {
		return ml.ErrNotFitted
	}
	if len(Xnew) == 0 && len(ynew) == 0 {
		return nil
	}
	dim, err := ml.CheckTrainingSet(Xnew, ynew)
	if err != nil {
		return err
	}
	if dim != m.dim {
		return fmt.Errorf("lssvm: appended rows have %d features, want %d", dim, m.dim)
	}
	if m.chol == nil {
		// Deserialized model: rebuild the factor once, then extend.
		if err := m.rebuildFactor(); err != nil {
			return err
		}
	}
	oldN := m.trainRows.Len()
	mNew := len(Xnew)
	Xs := m.std.ApplyAll(Xnew)

	// Standardizer drift check (on the standardized batch, where the
	// frozen statistics predict mean 0 / σ 1 per feature): past the
	// threshold the incremental path would keep standardizing new data
	// with stale statistics, so refit from scratch instead.
	// Drift is still measured (and reported) with a pinned standardizer,
	// but never acted on: a refit would reuse the pinned statistics and
	// reproduce the incremental result at O(n³) — the pin wins.
	drift := driftScore(Xs)
	if m.opts.DriftThreshold > 0 && drift > m.opts.DriftThreshold && m.opts.Standardizer == nil {
		if err := m.refitCombined(Xnew, ynew); err != nil {
			return err
		}
		m.lastUpdate = ml.UpdateInfo{DriftScore: drift, DriftRefit: true}
		return nil
	}
	if err := m.trainRows.Append(Xs); err != nil {
		return err
	}
	if err := m.extendFactor(m.trainRows, oldN, mNew); err != nil {
		m.trainRows.Truncate(oldN)
		return err
	}
	combined := append(m.yRaw, ynew...)
	sol, err := solveSystem(m.chol, combined)
	if err != nil {
		// Roll the extension back; the model keeps its previous fit.
		m.trainRows.Truncate(oldN)
		m.chol.Truncate(oldN)
		return err
	}
	m.yRaw = combined
	m.applySolution(sol)
	m.lastUpdate = ml.UpdateInfo{Incremental: true, DriftScore: drift}
	return nil
}

// extendFactor evaluates the kernel border for the mNew rows of r
// after oldN and extends the Cholesky factor in place, escalating a
// diagonal jitter on the new block when the border breaks positive
// definiteness (the factored history keeps its original shift). All
// pooled border scratch is returned on every path. On error the factor
// is unchanged; the caller rolls back its row store.
func (m *Model) extendFactor(r *kernel.Rows, oldN, mNew int) error {
	a21 := mat.Shared.GetDense(mNew, oldN)
	a22 := mat.Shared.GetDense(mNew, mNew)
	kernel.GramBorder(m.kern, r, oldN, a21, a22)
	for i := 0; i < mNew; i++ {
		a22.Set(i, i, a22.At(i, i)+m.diagAdd)
	}
	err := m.chol.Extend(a21, a22, mat.Shared)
	jitter := 1e-10 * (m.diagAdd + 1)
	for attempt := 0; err == mat.ErrNotPositiveDefinite && attempt < 8; attempt++ {
		for i := 0; i < mNew; i++ {
			a22.Set(i, i, a22.At(i, i)+jitter)
		}
		err = m.chol.Extend(a21, a22, mat.Shared)
		jitter *= 100
	}
	mat.Shared.PutDense(a21)
	mat.Shared.PutDense(a22)
	if err != nil {
		return fmt.Errorf("lssvm: extending kernel system: %w", err)
	}
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
		return fmt.Errorf("lssvm: cannot pin preprocessing from %T", src)
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

// driftScore delegates to the shared ml.DriftScore (the logic moved
// there when the ε-SVR grew the same drift check).
func driftScore(Xs [][]float64) float64 { return ml.DriftScore(Xs) }

// refitCombined retrains from scratch on the retained history plus the
// new rows, with freshly fitted statistics (the drift-triggered refit
// path). The retained rows are de-standardized back to raw feature
// space first; on error the previous fit stays intact.
func (m *Model) refitCombined(Xnew [][]float64, ynew []float64) error {
	n := m.trainRows.Len()
	X := make([][]float64, 0, n+len(Xnew))
	for i := 0; i < n; i++ {
		xs := m.trainRows.Row(i)
		raw := make([]float64, m.dim)
		for j, v := range xs {
			raw[j] = v*m.std.Std[j] + m.std.Mean[j]
		}
		X = append(X, raw)
	}
	X = append(X, Xnew...)
	y := make([]float64, 0, n+len(ynew))
	y = append(y, m.yRaw...)
	y = append(y, ynew...)
	return m.Fit(X, y)
}

// rebuildFactor refactors the full regularized kernel system from the
// stored training rows — the one-time O(n³) cost a deserialized model
// pays before its first incremental update.
func (m *Model) rebuildFactor() error {
	if len(m.yRaw) != m.trainRows.Len() {
		return fmt.Errorf("lssvm: restored model carries no targets; refit before Update")
	}
	a := kernel.MatrixRowsPooled(m.kern, m.trainRows, mat.Shared)
	ridge := 1 / m.opts.Gamma
	for i := 0; i < a.Rows(); i++ {
		a.Set(i, i, a.At(i, i)+ridge)
	}
	ch, jitter, err := mat.NewCholeskyJittered(a, mat.GrowCap(a.Rows()), mat.Shared)
	mat.Shared.PutDense(a)
	if err != nil {
		return fmt.Errorf("lssvm: refactoring kernel system: %w", err)
	}
	m.chol = ch
	m.diagAdd = ridge + jitter
	return nil
}

// Predict implements ml.Regressor:
// f(x) = Σ_i α_i k(x_i, x) + b, de-standardized. Scratch comes from
// the shared pool, so single-sample prediction is allocation-free
// after warm-up — the live-monitoring hot path.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted || len(x) != m.dim {
		return math.NaN()
	}
	scratch := mat.Shared.GetVec(m.dim + len(m.alpha))
	out := m.predictInto(x, scratch[:m.dim], scratch[m.dim:])
	mat.Shared.PutVec(scratch)
	return out
}

// predictTile is the query-block size of the batched prediction path
// (matching svm's): enough rows to amortize the training-row panel
// traffic through the two-row register tile.
const predictTile = 32

// PredictBatch implements ml.BatchPredictor: queries are staged in
// blocks of predictTile and evaluated against every training point in
// one tiled kernel.EvalBatchFlat pass per block, so the training-row
// panel is read once per query pair instead of once per query. Rows of
// the wrong dimension yield NaN without disturbing the block.
func (m *Model) PredictBatch(X [][]float64, out []float64) {
	if !m.fitted {
		for i := range X {
			out[i] = math.NaN()
		}
		return
	}
	n := m.trainRows.Len()
	stride := m.trainRows.Stride()
	scratch := mat.Shared.GetVec(predictTile*stride + predictTile + predictTile*n)
	qbuf := scratch[:predictTile*stride]
	qnorms := scratch[predictTile*stride : predictTile*stride+predictTile]
	kbuf := scratch[predictTile*stride+predictTile:]
	for base := 0; base < len(X); base += predictTile {
		cnt := min(predictTile, len(X)-base)
		var bad [predictTile]bool
		qn := 0
		for bi := 0; bi < cnt; bi++ {
			x := X[base+bi]
			if len(x) != m.dim {
				bad[bi] = true
				out[base+bi] = math.NaN()
				continue
			}
			dst := qbuf[qn*stride : (qn+1)*stride]
			m.std.ApplyInto(x, dst[:m.dim])
			clear(dst[m.dim:]) // pool scratch: the padding must be zero
			qnorms[qn] = mat.Dot(dst, dst)
			qn++
		}
		kernel.EvalBatchFlat(m.kern, m.trainRows, qbuf, qnorms, qn, kbuf)
		qi := 0
		for bi := 0; bi < cnt; bi++ {
			if bad[bi] {
				continue
			}
			s := m.bias + mat.Dot(m.alpha, kbuf[qi*n:(qi+1)*n])
			out[base+bi] = s*m.yStd + m.yMean
			qi++
		}
	}
	mat.Shared.PutVec(scratch)
}

// predictInto evaluates one row using caller-provided scratch.
func (m *Model) predictInto(x, xbuf, kbuf []float64) float64 {
	m.std.ApplyInto(x, xbuf)
	kernel.EvalInto(m.kern, m.trainRows, xbuf, kbuf)
	s := m.bias + mat.Dot(m.alpha, kbuf)
	return s*m.yStd + m.yMean
}

var (
	_ ml.Regressor            = (*Model)(nil)
	_ ml.BatchPredictor       = (*Model)(nil)
	_ ml.IncrementalRegressor = (*Model)(nil)
	_ ml.UpdateReporter       = (*Model)(nil)
)

// lssvmJSON is the serialized model state. TrainY carries the raw
// targets so a restored model can keep taking incremental updates
// (absent in payloads from older versions, which then require a refit
// before Update). The fields that grow with the training set are
// written packed and read in either form.
type lssvmJSON struct {
	Options Options         `json:"options"`
	Kernel  json.RawMessage `json:"kernel"`
	Mean    []float64       `json:"mean"`
	Std     []float64       `json:"std"`
	TrainX  packed.Matrix   `json:"train_x"`
	TrainY  packed.Floats   `json:"train_y,omitempty"`
	Alpha   packed.Floats   `json:"alpha"`
	Bias    float64         `json:"bias"`
	YMean   float64         `json:"y_mean"`
	YStd    float64         `json:"y_std"`
	Dim     int             `json:"dim"`
}

// MarshalJSON serializes a fitted LS-SVM (only built-in kernels
// round-trip). Every training point is a support vector, so the payload
// scales with the training-set size.
func (m *Model) MarshalJSON() ([]byte, error) {
	if !m.fitted {
		return nil, ml.ErrNotFitted
	}
	kj, err := kernel.MarshalKernel(m.kern)
	if err != nil {
		return nil, err
	}
	opts := m.opts
	opts.Kernel = nil
	opts.Standardizer = nil // carried by Mean/Std
	trainX := make([][]float64, m.trainRows.Len())
	for i := range trainX {
		trainX[i] = m.trainRows.Row(i)
	}
	return json.Marshal(lssvmJSON{
		Options: opts, Kernel: kj,
		Mean: m.std.Mean, Std: m.std.Std,
		TrainX: trainX, TrainY: m.yRaw, Alpha: m.alpha, Bias: m.bias,
		YMean: m.yMean, YStd: m.yStd, Dim: m.dim,
	})
}

// UnmarshalJSON restores an LS-SVM serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s lssvmJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("lssvm: decoding model: %w", err)
	}
	if s.Dim <= 0 || len(s.TrainX) != len(s.Alpha) {
		return fmt.Errorf("lssvm: malformed serialized model (dim=%d, %d points, %d alphas)",
			s.Dim, len(s.TrainX), len(s.Alpha))
	}
	if len(s.TrainY) != 0 && len(s.TrainY) != len(s.TrainX) {
		return fmt.Errorf("lssvm: %d targets for %d training points", len(s.TrainY), len(s.TrainX))
	}
	if len(s.Mean) != s.Dim || len(s.Std) != s.Dim {
		return fmt.Errorf("lssvm: standardizer dimension mismatch")
	}
	for i, tx := range s.TrainX {
		if len(tx) != s.Dim {
			return fmt.Errorf("lssvm: training point %d has %d features, want %d", i, len(tx), s.Dim)
		}
	}
	kern, err := kernel.UnmarshalKernel(s.Kernel)
	if err != nil {
		return err
	}
	m.opts = s.Options
	m.kern = kern
	m.std = &kernel.Standardizer{Mean: s.Mean, Std: s.Std}
	m.trainRows = kernel.NewRows(s.TrainX)
	m.alpha = s.Alpha
	m.bias = s.Bias
	m.yMean = s.YMean
	m.yStd = s.YStd
	m.dim = s.Dim
	m.yRaw = s.TrainY
	m.chol = nil // rebuilt lazily by the first Update
	m.diagAdd = 0
	m.fitted = true
	return nil
}
