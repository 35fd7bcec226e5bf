package modelio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/ml"
	"repro/internal/ml/lasso"
	"repro/internal/ml/linreg"
	"repro/internal/ml/lssvm"
	"repro/internal/ml/m5p"
	"repro/internal/ml/reptree"
	"repro/internal/ml/svm"
	"repro/internal/randx"
)

// trainingData builds a nonlinear problem exercising every model family.
func trainingData(n int) (X [][]float64, y []float64) {
	src := randx.New(42)
	for i := 0; i < n; i++ {
		a := src.Uniform(0, 10)
		b := src.Uniform(0, 5)
		X = append(X, []float64{a, b})
		y = append(y, 3*a+math.Sin(a)*20-b*b+src.Norm(0, 0.2))
	}
	return X, y
}

// fittedModels returns one trained instance per method.
func fittedModels(t *testing.T) []ml.Regressor {
	t.Helper()
	X, y := trainingData(200)
	var out []ml.Regressor

	lin := linreg.New()
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out = append(out, lin)

	las, err := lasso.New(lasso.DefaultOptions(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := las.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out = append(out, las)

	tree, err := m5p.New(m5p.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out = append(out, tree)

	rep, err := reptree.New(reptree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out = append(out, rep)

	sv, err := svm.New(svm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out = append(out, sv)

	ls, err := lssvm.New(lssvm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out = append(out, ls)

	return out
}

func TestRoundTripAllModels(t *testing.T) {
	models := fittedModels(t)
	probeSrc := randx.New(7)
	probes := make([][]float64, 50)
	for i := range probes {
		probes[i] = []float64{probeSrc.Uniform(0, 10), probeSrc.Uniform(0, 5)}
	}
	for _, m := range models {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", m.Name(), err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", m.Name(), err)
		}
		if loaded.Name() != m.Name() {
			t.Fatalf("name changed: %q -> %q", m.Name(), loaded.Name())
		}
		for _, p := range probes {
			want, got := m.Predict(p), loaded.Predict(p)
			if math.IsNaN(want) || math.IsNaN(got) {
				t.Fatalf("%s: NaN prediction after round trip", m.Name())
			}
			if math.Abs(want-got) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%s: prediction changed: %v -> %v", m.Name(), want, got)
			}
		}
	}
}

func TestSaveUnfittedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, linreg.New()); err == nil {
		t.Fatal("unfitted model saved")
	}
}

func TestSaveUnsupportedType(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, unsupported{}); err == nil {
		t.Fatal("unsupported model type saved")
	}
}

type unsupported struct{}

func (unsupported) Name() string                         { return "nope" }
func (unsupported) Fit(X [][]float64, y []float64) error { return nil }
func (unsupported) Predict(x []float64) float64          { return 0 }

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      "not json at all",
		"wrong format":  `{"format":"other","version":1,"kind":"linear","payload":{}}`,
		"wrong version": `{"format":"f2pm-model","version":99,"kind":"linear","payload":{}}`,
		"unknown kind":  `{"format":"f2pm-model","version":1,"kind":"mystery","payload":{}}`,
		"bad payload":   `{"format":"f2pm-model","version":1,"kind":"linear","payload":{"coef":[]}}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadTamperedTree(t *testing.T) {
	// A split node referencing an out-of-range feature must be rejected,
	// not crash at predict time.
	X, y := trainingData(100)
	tree, err := reptree.New(reptree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tree); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"feature":1`, `"feature":99`, 1)
	if _, err := Load(strings.NewReader(tampered)); err == nil {
		// The tree might not split on feature 1; only fail if the
		// replacement actually happened.
		if tampered != buf.String() {
			t.Fatal("tampered tree accepted")
		}
	}
}

func TestPredictAfterLoadWithoutRefit(t *testing.T) {
	// The loaded model must be usable *without* calling Fit.
	X, y := trainingData(80)
	m, err := m5p.New(m5p.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loaded.Predict([]float64{5, 2})) {
		t.Fatal("loaded model not ready")
	}
}

// TestMetaRoundTrip pins the version-2 envelope: the feature subset and
// aggregation config survive SaveWithMeta → LoadWithMeta.
func TestMetaRoundTrip(t *testing.T) {
	X, y := trainingData(60)
	lin := linreg.New()
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	agg := aggregate.Config{WindowSec: 45, IncludeSlopes: true, IncludeIntergen: true}
	meta := &Meta{
		Features:    []string{"mem_used", "num_threads_slope"},
		Aggregation: &agg,
	}
	var buf bytes.Buffer
	if err := SaveWithMeta(&buf, lin, meta); err != nil {
		t.Fatal(err)
	}
	m, got, err := LoadWithMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "linear" {
		t.Fatalf("loaded kind %q", m.Name())
	}
	if got == nil || got.Aggregation == nil {
		t.Fatalf("metadata lost: %+v", got)
	}
	if *got.Aggregation != agg {
		t.Fatalf("aggregation %+v, want %+v", *got.Aggregation, agg)
	}
	if len(got.Features) != 2 || got.Features[0] != "mem_used" || got.Features[1] != "num_threads_slope" {
		t.Fatalf("features %v", got.Features)
	}
}

// TestSaveWithoutMetaLoadsNil pins that plain Save yields nil metadata.
func TestSaveWithoutMetaLoadsNil(t *testing.T) {
	X, y := trainingData(60)
	lin := linreg.New()
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, lin); err != nil {
		t.Fatal(err)
	}
	_, meta, err := LoadWithMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		t.Fatalf("unexpected metadata %+v", meta)
	}
}

// TestLoadVersion1Envelope pins backward compatibility: a pre-metadata
// (version 1) envelope still loads, with nil metadata.
func TestLoadVersion1Envelope(t *testing.T) {
	X, y := trainingData(60)
	lin := linreg.New()
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, lin); err != nil {
		t.Fatal(err)
	}
	// Rewrite the envelope as version 1 without meta; a linear payload
	// has no packed field, so this is byte for byte what the version-1
	// writer wrote (testdata/v1_svm.json is a real one with matrices).
	v1 := strings.Replace(buf.String(), `"version":3`, `"version":1`, 1)
	if v1 == buf.String() {
		t.Fatalf("Save did not write version 3: %.60s", v1)
	}
	m, meta, err := LoadWithMeta(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("version-1 envelope rejected: %v", err)
	}
	if meta != nil {
		t.Fatalf("version-1 envelope produced metadata %+v", meta)
	}
	want := lin.Predict(X[0])
	if got := m.Predict(X[0]); got != want {
		t.Fatalf("prediction drifted across v1 load: %v vs %v", got, want)
	}
}
