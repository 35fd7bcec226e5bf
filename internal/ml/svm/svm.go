// Package svm implements ε-insensitive support-vector regression
// (Cortes & Vapnik 1995; paper §III-D "SVM") trained by dual coordinate
// descent on the β = α - α* formulation with the bias folded into the
// kernel (K' = K + 1), the standard simplification of SMO-style solvers:
//
//	minimize  W(β) = ½ βᵀK'β − yᵀβ + ε‖β‖₁   s.t.  |β_i| ≤ C
//
// Each coordinate has the closed-form update
// β_i ← clip( S(y_i − g_i, ε) / K'_ii, ±C ) with g_i the prediction
// excluding β_i and S the soft-threshold operator. Inputs and targets are
// standardized internally (as WEKA's SMOreg does), since the raw F2PM
// features span six orders of magnitude.
//
// The solver works directly on flat Gram rows from the kernel engine
// (no row copies; the +1 bias folds in place) and shrinks its active
// set: coordinates that stop moving are skipped until a final full
// sweep certifies optimality. Prediction batches all support vectors
// through kernel.EvalInto.
//
// The fitted model retains its standardized training rows, the
// bias-folded Gram and the full dual vector, so Update and UpdateWindow
// (update.go) extend the fit warm: the Gram grows by its kernel border
// only, the coordinate descent restarts from the previous β rescaled to
// the recomputed target standardization, and typically certifies
// optimality in a few sweeps instead of a cold solve — the incremental
// retraining contract behind core.Pipeline.Update, closing the one gap
// that still forced a from-scratch refit inside the autonomic loop.
package svm

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
	// C is the box constraint (regularization trade-off).
	C float64
	// Epsilon is the insensitive-tube half-width in standardized target
	// units.
	Epsilon float64
	// Kernel computes similarities on standardized inputs; nil selects
	// RBF with the 1/d heuristic gamma.
	Kernel kernel.Kernel
	// MaxPasses bounds full coordinate sweeps.
	MaxPasses int
	// Tol stops when the largest coordinate change in a sweep drops
	// below Tol·C.
	Tol float64
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
	// frozen standardizer by more than this much (see ml.DriftScore),
	// the incremental path is abandoned and the model refits from
	// scratch with freshly fitted statistics (unless Standardizer is
	// pinned, which wins). 0 disables detection; the outcome of each
	// Update is reported via LastUpdate.
	DriftThreshold float64
}

// DefaultOptions returns SMOreg-like settings.
func DefaultOptions() Options {
	return Options{C: 1, Epsilon: 0.08, MaxPasses: 60, Tol: 1e-4}
}

// Validate reports option errors.
func (o *Options) Validate() error {
	if o.C <= 0 {
		return fmt.Errorf("svm: C must be positive, got %v", o.C)
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("svm: Epsilon must be non-negative, got %v", o.Epsilon)
	}
	if o.MaxPasses <= 0 {
		return fmt.Errorf("svm: MaxPasses must be positive, got %d", o.MaxPasses)
	}
	if o.Tol <= 0 {
		return fmt.Errorf("svm: Tol must be positive, got %v", o.Tol)
	}
	if o.DriftThreshold < 0 {
		return fmt.Errorf("svm: DriftThreshold must be non-negative, got %v", o.DriftThreshold)
	}
	return nil
}

// Model is a fitted ε-SVR.
type Model struct {
	opts Options
	kern kernel.Kernel
	std  *kernel.Standardizer

	// support set: training rows with non-zero beta. supportRows is
	// the flat layout used by the batched prediction path.
	supportX    [][]float64
	beta        []float64
	supportRows *kernel.Rows
	betaSum     float64

	yMean, yStd float64
	dim         int
	fitted      bool

	// Incremental-retraining state: the full standardized training set
	// in the flat layout, the bias-folded Gram over it (grown by its
	// border on Update; nil on a deserialized model and rebuilt lazily),
	// the full dual vector (zeros included — the warm-start seed), and
	// the raw targets, re-standardized over the surviving window on
	// every update.
	trainRows *kernel.Rows
	gram      *mat.Dense
	betaFull  []float64
	yRaw      []float64

	// lastUpdate reports what the latest Update call did (drift score
	// of the appended batch, incremental vs drift-triggered refit).
	lastUpdate ml.UpdateInfo

	// Passes reports the sweeps used by the last Fit or Update;
	// SupportVectors the retained expansion size.
	Passes         int
	SupportVectors int
}

// New returns an unfitted SVR.
func New(opts Options) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Model{opts: opts}, nil
}

// Name implements ml.Regressor; the paper's tables call this model "SVM".
func (m *Model) Name() string { return "svm" }

// Fit trains by cyclic coordinate descent on the dual. The standardized
// rows, the bias-folded Gram and the full dual vector are retained, so
// a later Update restarts the solver warm at a cost scaling with the
// new rows.
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
		return fmt.Errorf("svm: pinned standardizer has dimension %d, want %d", len(std.Mean), dim)
	}
	Xs := std.ApplyAll(X)

	yMean := ml.Mean(y)
	yStd := math.Sqrt(ml.Variance(y))
	if yStd == 0 {
		yStd = 1
	}
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - yMean) / yStd
	}

	kern := m.opts.Kernel
	if kern == nil {
		kern = kernel.RBF{Gamma: 1 / float64(dim)}
	}

	// Gram matrix built on the flat engine, with the bias folded in
	// place: K' = K + 1. No row copies — the coordinate-descent loop
	// works directly on the flat Gram rows. Drawn from the pool so the
	// retrain cycle (Fit/Update put the previous Gram back) recycles
	// its largest buffer instead of reallocating n² floats per round.
	rows := kernel.NewRows(Xs)
	gram := kernel.MatrixRowsPooled(kern, rows, mat.Shared)
	foldBias(gram)

	beta, pass := solveDualFrom(gram, ys, nil, m.opts)

	// Commit only now: a failure above leaves a previously fitted
	// model fully usable.
	m.std = std
	m.kern = kern
	if m.gram != nil {
		mat.Shared.PutDense(m.gram)
	}
	m.trainRows = rows
	m.gram = gram
	m.betaFull = beta
	m.yRaw = ml.CloneVector(y)
	m.yMean, m.yStd = yMean, yStd
	m.dim = dim
	m.fitted = true
	m.Passes = pass
	m.lastUpdate = ml.UpdateInfo{} // a fresh fit resets the update report
	m.rebuildSupports()
	return nil
}

// foldBias folds the +1 bias into a freshly evaluated Gram: K' = K + 1.
func foldBias(g *mat.Dense) {
	for i := 0; i < g.Rows(); i++ {
		row := g.Row(i)
		for j := range row {
			row[j]++
		}
	}
}

// rebuildSupports re-derives the retained support set (training rows
// with non-zero dual coefficient) from the full incremental state. The
// rows are copied out of the flat store: a later Append may compact or
// reallocate its backing buffer, which would corrupt zero-copy views.
func (m *Model) rebuildSupports() {
	m.supportX = m.supportX[:0]
	m.beta = m.beta[:0]
	for i, b := range m.betaFull {
		if b != 0 {
			m.supportX = append(m.supportX, append([]float64(nil), m.trainRows.Row(i)...))
			m.beta = append(m.beta, b)
		}
	}
	m.SupportVectors = len(m.beta)
	m.initPredict()
}

// initPredict builds the flat support-vector layout used by the
// batched prediction path.
func (m *Model) initPredict() {
	m.supportRows = kernel.NewRows(m.supportX)
	m.betaSum = 0
	for _, b := range m.beta {
		m.betaSum += b
	}
}

// solveDualFrom minimizes W(β) = ½βᵀK'β − ysᵀβ + ε‖β‖₁ s.t. |β_i| ≤ C
// by cyclic coordinate descent with active-set shrinking: coordinates
// that stay put for two consecutive sweeps leave the active set, so
// late sweeps only touch the (few) moving coordinates. Before
// accepting convergence on a shrunk set, one full sweep over all
// eligible coordinates verifies global optimality and reactivates
// everything if any coordinate still moves. gram is the bias-folded
// kernel matrix K' = K + 1; beta0, when non-nil, warm-starts the solve
// (entries must already respect the box) — the dual is strictly convex
// for positive-definite K', so warm and cold starts converge to the
// same optimum and the seed only buys sweeps. Returns the dual
// coefficients and the sweeps used.
func solveDualFrom(gram *mat.Dense, ys, beta0 []float64, opts Options) (beta []float64, pass int) {
	n := len(ys)
	beta = make([]float64, n)
	f := make([]float64, n) // f_i = Σ_j K'_ij β_j
	if beta0 != nil {
		copy(beta, beta0)
		// Seeding costs one row pass per non-zero coefficient — the
		// support set, not the training set.
		for j, b := range beta {
			if b != 0 {
				mat.AddScaled(f, b, gram.Row(j))
			}
		}
	}
	C := opts.C
	eps := opts.Epsilon
	tol := opts.Tol * C

	eligible := make([]int, 0, n) // coordinates with a usable diagonal
	for i := 0; i < n; i++ {
		if gram.Row(i)[i] > 0 {
			eligible = append(eligible, i)
		}
	}
	active := append(make([]int, 0, len(eligible)), eligible...)
	strikes := make([]uint8, n)
	const maxStrikes = 2

	for pass = 0; pass < opts.MaxPasses; pass++ {
		fullSweep := len(active) == len(eligible)
		maxDelta := 0.0
		kept := active[:0]
		for _, i := range active {
			row := gram.Row(i)
			kii := row[i]
			g := f[i] - kii*beta[i] // prediction excluding i
			target := ys[i] - g
			nb := softThreshold(target, eps) / kii
			if nb > C {
				nb = C
			} else if nb < -C {
				nb = -C
			}
			if d := nb - beta[i]; d != 0 {
				mat.AddScaled(f, d, row)
				beta[i] = nb
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
				strikes[i] = 0
			} else {
				strikes[i]++
			}
			if strikes[i] < maxStrikes {
				kept = append(kept, i)
			}
		}
		active = kept
		if maxDelta < tol {
			if fullSweep {
				pass++
				break
			}
			// Shrunk convergence: verify with a full sweep.
			active = append(active[:0], eligible...)
			for _, i := range eligible {
				strikes[i] = 0
			}
		}
	}
	return beta, pass
}

func softThreshold(z, eps float64) float64 {
	switch {
	case z > eps:
		return z - eps
	case z < -eps:
		return z + eps
	default:
		return 0
	}
}

// Predict implements ml.Regressor:
// f(x) = Σ_i β_i (k(x_i, x) + 1), de-standardized. Scratch comes from
// the shared pool, so single-sample prediction — the live-monitoring
// hot path — is allocation-free after warm-up.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted || len(x) != m.dim {
		return math.NaN()
	}
	scratch := mat.Shared.GetVec(m.dim + len(m.beta))
	out := m.predictInto(x, scratch[:m.dim], scratch[m.dim:])
	mat.Shared.PutVec(scratch)
	return out
}

// predictTile is the query-block size of the batched prediction path:
// enough rows to amortize the support-vector panel traffic through the
// two-row register tile, small enough that the staged queries and the
// kernel-value block stay pool-friendly.
const predictTile = 32

// PredictBatch implements ml.BatchPredictor: queries are staged in
// blocks of predictTile and evaluated against all support vectors in
// one tiled kernel.EvalBatchFlat pass per block, so the support-vector
// panel is read once per query pair instead of once per query. Rows of
// the wrong dimension yield NaN without disturbing the block.
func (m *Model) PredictBatch(X [][]float64, out []float64) {
	if !m.fitted {
		for i := range X {
			out[i] = math.NaN()
		}
		return
	}
	nsv := m.supportRows.Len()
	if nsv == 0 {
		// Degenerate expansion: every valid row predicts the folded
		// bias alone.
		for i, x := range X {
			if len(x) != m.dim {
				out[i] = math.NaN()
				continue
			}
			out[i] = m.betaSum*m.yStd + m.yMean
		}
		return
	}
	stride := m.supportRows.Stride()
	scratch := mat.Shared.GetVec(predictTile*stride + predictTile + predictTile*nsv)
	qbuf := scratch[:predictTile*stride]
	qnorms := scratch[predictTile*stride : predictTile*stride+predictTile]
	kbuf := scratch[predictTile*stride+predictTile:]
	for base := 0; base < len(X); base += predictTile {
		cnt := min(predictTile, len(X)-base)
		// Stage the valid rows standardized and stride-padded; remember
		// which block slots were staged (wrong-dimension rows get NaN).
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
		kernel.EvalBatchFlat(m.kern, m.supportRows, qbuf, qnorms, qn, kbuf)
		qi := 0
		for bi := 0; bi < cnt; bi++ {
			if bad[bi] {
				continue
			}
			s := m.betaSum + mat.Dot(m.beta, kbuf[qi*nsv:(qi+1)*nsv])
			out[base+bi] = s*m.yStd + m.yMean
			qi++
		}
	}
	mat.Shared.PutVec(scratch)
}

// predictInto evaluates one row using caller-provided scratch: xbuf
// holds the standardized input (dim), kbuf the kernel values (one per
// support vector).
func (m *Model) predictInto(x, xbuf, kbuf []float64) float64 {
	m.std.ApplyInto(x, xbuf)
	kernel.EvalInto(m.kern, m.supportRows, xbuf, kbuf)
	// betaSum is Σ β_i · 1 from the folded bias; the expansion itself
	// runs through the vectorized dot.
	s := m.betaSum + mat.Dot(m.beta, kbuf)
	return s*m.yStd + m.yMean
}

var (
	_ ml.Regressor      = (*Model)(nil)
	_ ml.BatchPredictor = (*Model)(nil)
)

// svmJSON is the serialized model state. TrainX/TrainY/BetaFull carry
// the full incremental state so a restored model can keep taking
// warm-started updates (absent in payloads from older versions, which
// then require a refit before Update). The fields that grow with the
// training set are written packed and read in either form.
type svmJSON struct {
	Options  Options         `json:"options"`
	Kernel   json.RawMessage `json:"kernel"`
	Mean     []float64       `json:"mean"`
	Std      []float64       `json:"std"`
	SupportX packed.Matrix   `json:"support_x"`
	Beta     packed.Floats   `json:"beta"`
	TrainX   packed.Matrix   `json:"train_x,omitempty"`
	TrainY   packed.Floats   `json:"train_y,omitempty"`
	BetaFull packed.Floats   `json:"beta_full,omitempty"`
	YMean    float64         `json:"y_mean"`
	YStd     float64         `json:"y_std"`
	Dim      int             `json:"dim"`
}

// MarshalJSON serializes a fitted SVR (only built-in kernels round-trip).
func (m *Model) MarshalJSON() ([]byte, error) {
	if !m.fitted {
		return nil, ml.ErrNotFitted
	}
	kj, err := kernel.MarshalKernel(m.kern)
	if err != nil {
		return nil, err
	}
	opts := m.opts
	opts.Kernel = nil       // serialized separately
	opts.Standardizer = nil // carried by Mean/Std
	var trainX [][]float64
	if m.trainRows != nil {
		trainX = make([][]float64, m.trainRows.Len())
		for i := range trainX {
			trainX[i] = m.trainRows.Row(i)
		}
	}
	return json.Marshal(svmJSON{
		Options: opts, Kernel: kj,
		Mean: m.std.Mean, Std: m.std.Std,
		SupportX: m.supportX, Beta: m.beta,
		TrainX: trainX, TrainY: m.yRaw, BetaFull: m.betaFull,
		YMean: m.yMean, YStd: m.yStd, Dim: m.dim,
	})
}

// UnmarshalJSON restores an SVR serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s svmJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("svm: decoding model: %w", err)
	}
	if s.Dim <= 0 || len(s.SupportX) != len(s.Beta) {
		return fmt.Errorf("svm: malformed serialized model (dim=%d, %d SVs, %d betas)",
			s.Dim, len(s.SupportX), len(s.Beta))
	}
	if len(s.Mean) != s.Dim || len(s.Std) != s.Dim {
		return fmt.Errorf("svm: standardizer dimension mismatch")
	}
	for i, sv := range s.SupportX {
		if len(sv) != s.Dim {
			return fmt.Errorf("svm: support vector %d has %d features, want %d", i, len(sv), s.Dim)
		}
	}
	if len(s.TrainX) != 0 {
		if len(s.TrainY) != len(s.TrainX) || len(s.BetaFull) != len(s.TrainX) {
			return fmt.Errorf("svm: malformed incremental state (%d rows, %d targets, %d betas)",
				len(s.TrainX), len(s.TrainY), len(s.BetaFull))
		}
		for i, tx := range s.TrainX {
			if len(tx) != s.Dim {
				return fmt.Errorf("svm: training row %d has %d features, want %d", i, len(tx), s.Dim)
			}
		}
	}
	kern, err := kernel.UnmarshalKernel(s.Kernel)
	if err != nil {
		return err
	}
	m.opts = s.Options
	m.kern = kern
	m.std = &kernel.Standardizer{Mean: s.Mean, Std: s.Std}
	m.supportX = s.SupportX
	m.beta = s.Beta
	if len(s.TrainX) != 0 {
		m.trainRows = kernel.NewRows(s.TrainX)
		m.yRaw = s.TrainY
		m.betaFull = s.BetaFull
	} else {
		m.trainRows, m.yRaw, m.betaFull = nil, nil, nil
	}
	m.gram = nil // rebuilt lazily by the first Update
	m.yMean = s.YMean
	m.yStd = s.YStd
	m.dim = s.Dim
	m.fitted = true
	m.lastUpdate = ml.UpdateInfo{}
	m.SupportVectors = len(s.Beta)
	m.initPredict()
	return nil
}
