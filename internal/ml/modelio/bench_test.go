package modelio

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/lssvm"
	"repro/internal/ml/m5p"
	"repro/internal/randx"
)

// BenchmarkEnvelope times Save and Load on the two payload shapes the
// packed fields exist for: an LS-SVM that keeps its 1650 × 30 training
// rows (the size retrain-publish publishes) and an M5P tree with a plane
// per node. For local use; no committed baseline.
func BenchmarkEnvelope(b *testing.B) {
	const rows, dim = 1650, 30
	src := randx.New(14)
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		X[i] = make([]float64, dim)
		for j := range X[i] {
			X[i][j] = src.Uniform(0, 100)
		}
		y[i] = 3*X[i][0] + 20*math.Sin(X[i][1]/10) - X[i][2]*X[i][3]/50 + src.Norm(0, 0.5)
	}
	ls, err := lssvm.New(lssvm.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := m5p.New(m5p.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []ml.Regressor{ls, tree} {
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
		kind, _, err := kindOf(m)
		if err != nil {
			b.Fatal(err)
		}
		var env bytes.Buffer
		if err := Save(&env, m); err != nil {
			b.Fatal(err)
		}
		b.Run(kind+"/save", func(b *testing.B) {
			b.SetBytes(int64(env.Len()))
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := Save(&buf, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(kind+"/load", func(b *testing.B) {
			b.SetBytes(int64(env.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(env.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
