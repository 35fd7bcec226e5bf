package svm

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/randx"
)

// tightOptions returns solver settings strict enough that both the
// warm-started and the cold solve land within parity resolution of the
// (unique) dual optimum: the dual is strictly convex, so 1e-8 parity
// is a convergence question, not a modeling one.
func tightOptions() Options {
	opts := DefaultOptions()
	opts.C = 10
	opts.Tol = 1e-12
	// Active-set shrinking makes late sweeps nearly free, so a generous
	// budget costs milliseconds; a cold solve on an ill-conditioned
	// window can need ~50k sweeps to certify 1e-12.
	opts.MaxPasses = 500000
	return opts
}

// pinnedColdFit trains a fresh model from scratch on (X, y) with the
// feature standardizer pinned to ref's frozen statistics — the
// reference an incremental update must reproduce.
func pinnedColdFit(t *testing.T, ref *Model, X [][]float64, y []float64) *Model {
	t.Helper()
	cold, err := New(ref.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.PinPreprocessing(ref); err != nil {
		t.Fatal(err)
	}
	if err := cold.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return cold
}

// assertParity checks per-row prediction agreement over the training
// window at the repo's incremental-parity pin: 1e-8 relative. The
// window — not fresh probe points — is the contract: training-point
// predictions are what the dual optimum determines to solver
// resolution, while a near-singular RBF Gram (e.g. low-dimensional
// data) leaves off-sample predictions genuinely underdetermined
// between equally optimal duals.
func assertParity(t *testing.T, got, want ml.Regressor, X [][]float64, context string) {
	t.Helper()
	worst := 0.0
	for _, x := range X {
		g, w := got.Predict(x), want.Predict(x)
		tol := 1e-8 * (1 + math.Abs(w))
		if d := math.Abs(g - w); d > tol {
			t.Fatalf("%s: prediction %v vs %v (|Δ| = %v > %v)", context, g, w, d, tol)
		} else if d > worst {
			worst = d
		}
	}
	t.Logf("%s: worst |Δ| = %v", context, worst)
}

func TestUpdateParityWithColdFit(t *testing.T) {
	src := randx.New(11)
	X, y := sineData(src, 240, 2)
	initX, initY := X[:200], y[:200]
	newX, newY := X[200:], y[200:]

	m, err := New(tightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(initX, initY); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(newX, newY); err != nil {
		t.Fatal(err)
	}
	info := m.LastUpdate()
	if !info.Incremental || info.DriftRefit || info.Evicted != 0 {
		t.Fatalf("LastUpdate = %+v, want incremental append", info)
	}

	cold := pinnedColdFit(t, m, X, y)
	assertParity(t, m, cold, X, "append update vs pinned cold fit")
}

func TestSlideWindowParityWithColdFit(t *testing.T) {
	src := randx.New(12)
	X, y := sineData(src, 260, 2)
	initX, initY := X[:200], y[:200]
	newX, newY := X[200:], y[200:]
	const evict = 70

	m, err := New(tightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(initX, initY); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateWindow(newX, newY, initX[:evict], initY[:evict]); err != nil {
		t.Fatal(err)
	}
	info := m.LastUpdate()
	if !info.Incremental || info.Evicted != evict {
		t.Fatalf("LastUpdate = %+v, want incremental slide evicting %d", info, evict)
	}

	winX := append(append([][]float64{}, X[evict:200]...), newX...)
	winY := append(append([]float64{}, y[evict:200]...), newY...)
	cold := pinnedColdFit(t, m, winX, winY)
	assertParity(t, m, cold, winX, "window slide vs pinned cold fit")
}

func TestRepeatedSlidesKeepCapFlat(t *testing.T) {
	src := randx.New(13)
	X, y := sineData(src, 200, 2)
	m, err := New(tightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Warm up one slide so the store has absorbed its steady-state
	// shape, then assert capacity stays flat across many cycles.
	step := func() {
		nX, nY := sineData(src, 20, 2)
		if err := m.SlideWindow(nX, nY, 20); err != nil {
			t.Fatal(err)
		}
	}
	step()
	cap0 := m.RowCap()
	for i := 0; i < 10; i++ {
		step()
	}
	if m.RowCap() > cap0 {
		t.Fatalf("row capacity grew across steady-state slides: %d -> %d", cap0, m.RowCap())
	}
}

func TestUpdateDriftRefit(t *testing.T) {
	src := randx.New(14)
	X, y := sineData(src, 120, 2)
	opts := tightOptions()
	opts.DriftThreshold = 1.0
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// A far-shifted batch: every feature sits many frozen σ from the
	// training mean, so the incremental path must hand off to a refit
	// with fresh statistics.
	var shiftX [][]float64
	var shiftY []float64
	for i := 0; i < 30; i++ {
		x := src.Uniform(100, 110)
		shiftX = append(shiftX, []float64{x})
		shiftY = append(shiftY, 100*math.Sin(x))
	}
	if err := m.Update(shiftX, shiftY); err != nil {
		t.Fatal(err)
	}
	info := m.LastUpdate()
	if !info.DriftRefit || info.Incremental {
		t.Fatalf("LastUpdate = %+v, want drift-triggered refit", info)
	}
	if info.DriftScore <= opts.DriftThreshold {
		t.Fatalf("drift score %v not above threshold %v", info.DriftScore, opts.DriftThreshold)
	}

	// The same batch against a pinned standardizer must stay on the
	// incremental path: a refit would reuse the pinned statistics and
	// reproduce the incremental result anyway.
	pinned, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := New(opts)
	if err := base.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := pinned.PinPreprocessing(base); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Update(shiftX, shiftY); err != nil {
		t.Fatal(err)
	}
	if info := pinned.LastUpdate(); !info.Incremental || info.DriftRefit {
		t.Fatalf("pinned LastUpdate = %+v, want incremental", info)
	}
}

func TestRestoredModelUpdates(t *testing.T) {
	src := randx.New(15)
	X, y := sineData(src, 160, 2)
	m, err := New(tightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X[:120], y[:120]); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	restored := &Model{}
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	// The restored model rebuilds its Gram lazily and keeps updating.
	if err := restored.Update(X[120:], y[120:]); err != nil {
		t.Fatal(err)
	}
	cold := pinnedColdFit(t, m, X, y)
	assertParity(t, restored, cold, X, "restored-model update vs pinned cold fit")
}

func TestLegacyPayloadRequiresRefit(t *testing.T) {
	src := randx.New(16)
	X, y := sineData(src, 60, 2)
	m, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the incremental state, simulating a payload written before
	// this version: the restored model must predict but refuse Update.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "train_x")
	delete(raw, "train_y")
	delete(raw, "beta_full")
	legacy, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	restored := &Model{}
	if err := json.Unmarshal(legacy, restored); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Predict(X[0]), m.Predict(X[0]); math.Abs(got-want) > 1e-12 {
		t.Fatalf("legacy payload predicts %v, want %v", got, want)
	}
	if err := restored.Update(X[:5], y[:5]); err == nil {
		t.Fatal("Update on a legacy payload succeeded; want refit-required error")
	}
}

func TestUpdateArgumentErrors(t *testing.T) {
	src := randx.New(17)
	X, y := sineData(src, 40, 2)
	m, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(X, y); err == nil {
		t.Fatal("Update before Fit succeeded")
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := m.Update([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("dimension-mismatched Update succeeded")
	}
	if err := m.SlideWindow(nil, nil, 41); err == nil {
		t.Fatal("over-eviction succeeded")
	}
	if err := m.SlideWindow(nil, nil, 40); err == nil {
		t.Fatal("eviction of the whole window succeeded")
	}
	if err := m.UpdateWindow(nil, nil, X[:3], y[:2]); err == nil {
		t.Fatal("mismatched evict rows/targets succeeded")
	}
	// After every rejected call the model still predicts.
	if v := m.Predict(X[0]); math.IsNaN(v) {
		t.Fatal("model unusable after rejected updates")
	}
}

// benchData builds a paper-shaped training problem: n rows, 4 features.
func benchData(n int) ([][]float64, []float64) {
	src := randx.New(99)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := src.Uniform(0, 2*math.Pi)
		b := src.Uniform(-1, 1)
		X[i] = []float64{a, b, a * b, src.Uniform(0, 1)}
		y[i] = 100*math.Sin(a) + 20*b + src.Norm(0, 2)
	}
	return X, y
}

// BenchmarkSVMWarmStartUpdate measures appending 50 rows onto an
// n=1000 fit through the warm-started incremental path; the committed
// BENCH baseline diffs it against BenchmarkSVMColdRefit on the same
// combined set — the warm-vs-cold headline of the autonomic loop.
func BenchmarkSVMWarmStartUpdate(b *testing.B) {
	X, y := benchData(1050)
	base, err := New(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if err := base.Fit(X[:1000], y[:1000]); err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(base)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := &Model{}
		if err := json.Unmarshal(payload, m); err != nil {
			b.Fatal(err)
		}
		m.rebuildGram() // pre-warm the restored Gram; measured work is the update
		b.StartTimer()
		if err := m.Update(X[1000:], y[1000:]); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Return the Gram as a long-lived pipeline's next retrain would,
		// so the measured update draws its border-extended scratch from
		// the pool instead of allocating ~17 MB per iteration.
		mat.Shared.PutDense(m.gram)
		m.gram = nil
		b.StartTimer()
	}
}

// BenchmarkSVMColdRefit is the from-scratch baseline the warm path is
// compared against: a full Fit on the same 1050-row combined set.
func BenchmarkSVMColdRefit(b *testing.B) {
	X, y := benchData(1050)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUpdateGramRecycled pins the warm-start allocation fix: every Gram
// the retrain cycle builds is drawn from and returned to mat.Shared, so
// the buffer one update returns is the buffer a later same-class update
// draws, and each slide draws exactly one Gram-sized buffer (the evicted
// block is skipped in the one copy, not copied out first).
func TestUpdateGramRecycled(t *testing.T) {
	X, y := benchData(72)
	m, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X[:64], y[:64]); err != nil {
		t.Fatal(err)
	}
	// 68² = 4624 and 70² = 4900 share the 1/8-octave class (4608, 5120].
	// Updates 1 and 2 cycle two buffers of it through the pool; the
	// evict-2-append-2 slide keeps the window at 70 rows and must draw
	// the buffer update 1 released.
	if err := m.Update(X[64:68], y[64:68]); err != nil {
		t.Fatal(err)
	}
	first := &m.gram.Row(0)[0]
	if err := m.Update(X[68:70], y[68:70]); err != nil {
		t.Fatal(err)
	}
	before := mat.Shared.Stats()
	if err := m.SlideWindow(X[70:72], y[70:72], 2); err != nil {
		t.Fatal(err)
	}
	if &m.gram.Row(0)[0] != first {
		t.Fatal("warm slide did not recycle the pooled Gram buffer")
	}
	after := mat.Shared.Stats()
	if draws := (after.Hits + after.Misses) - (before.Hits + before.Misses); draws != 1 {
		t.Fatalf("evict + append slide drew %d pool buffers, want 1", draws)
	}
	if after.Misses != before.Misses {
		t.Fatalf("warm slide allocated: misses %d -> %d", before.Misses, after.Misses)
	}
}
