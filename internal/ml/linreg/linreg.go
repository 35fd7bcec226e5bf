// Package linreg implements ordinary least-squares linear regression with
// an intercept (paper §III-D, eq. 3): y = x·β + ε, solved by Householder
// QR with a ridge-regularized fallback for collinear designs, mirroring
// WEKA's LinearRegression behaviour that the paper used.
package linreg

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/ml"
)

// Model is a fitted linear regression. The zero value is unfitted.
type Model struct {
	// Coef holds the feature weights; Intercept the bias term.
	Coef      []float64
	Intercept float64
	fitted    bool
}

// New returns an unfitted linear regression model.
func New() *Model { return &Model{} }

// FromCoef returns a fitted model with the given plane, taking ownership
// of coef: how a model that stores planes of its own (an M5P node)
// restores them without a JSON detour.
func FromCoef(coef []float64, intercept float64) *Model {
	return &Model{Coef: coef, Intercept: intercept, fitted: true}
}

// Name implements ml.Regressor.
func (m *Model) Name() string { return "linear" }

// Fit solves min ||y - (Xβ + b)||₂ by QR on the augmented design matrix.
func (m *Model) Fit(X [][]float64, y []float64) error {
	dim, err := ml.CheckTrainingSet(X, y)
	if err != nil {
		return err
	}
	// Design matrix with a leading 1-column for the intercept, filled
	// row-wise on the flat layout.
	a := mat.NewDense(len(X), dim+1)
	for i, row := range X {
		arow := a.Row(i)
		arow[0] = 1
		copy(arow[1:], row)
	}
	sol, err := mat.LeastSquares(a, y)
	if err != nil {
		return err
	}
	m.Intercept = sol[0]
	m.Coef = sol[1:]
	m.fitted = true
	return nil
}

// Predict implements ml.Regressor; it returns NaN when unfitted or on a
// dimension mismatch.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted || len(x) != len(m.Coef) {
		return math.NaN()
	}
	s := m.Intercept
	for i, v := range x {
		s += m.Coef[i] * v
	}
	return s
}

var _ ml.Regressor = (*Model)(nil)

// linregJSON is the serialized model state.
type linregJSON struct {
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
}

// MarshalJSON serializes a fitted model.
func (m *Model) MarshalJSON() ([]byte, error) {
	if !m.fitted {
		return nil, ml.ErrNotFitted
	}
	return json.Marshal(linregJSON{Coef: m.Coef, Intercept: m.Intercept})
}

// UnmarshalJSON restores a model serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s linregJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("linreg: decoding model: %w", err)
	}
	if len(s.Coef) == 0 {
		return fmt.Errorf("linreg: serialized model has no coefficients")
	}
	m.Coef = s.Coef
	m.Intercept = s.Intercept
	m.fitted = true
	return nil
}
