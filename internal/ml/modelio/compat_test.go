package modelio

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/packed"
)

// vectorFiles are the envelopes under testdata written by the last
// commit whose SaveWithMeta wrote format version 2 (see testdata/gen):
// one per model kind, plus a version-1 file.
var vectorFiles = []string{
	"v2_linear.json", "v2_lasso.json", "v2_m5p.json", "v2_reptree.json",
	"v2_svm.json", "v2_lssvm.json", "v1_svm.json",
}

// probeSet mirrors testdata/gen: rows, what the model predicted for them
// before it was saved (Y), and what the saving commit's reader predicted
// from the file when built with -tags purego (YPurego). The two differ in
// the last bits for the kernel models, whose dot products internal/mat
// sums in another order without its assembly.
type probeSet struct {
	X       [][]float64 `json:"x"`
	Y       []float64   `json:"y"`
	YPurego []float64   `json:"y_purego"`
}

func readVector(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readProbes(t testing.TB) map[string]probeSet {
	t.Helper()
	var probes map[string]probeSet
	if err := json.Unmarshal(readVector(t, "probes.json"), &probes); err != nil {
		t.Fatal(err)
	}
	return probes
}

// checkProbes fails unless m predicts every probe row bit for bit as
// one of the two recorded kernel paths did — all rows by the same path.
// Off amd64 neither recording applies (the compiler may fuse the
// pure-Go kernels' multiply-adds) and 1e-12 has to do.
func checkProbes(t *testing.T, what string, m ml.Regressor, ps probeSet) {
	t.Helper()
	if len(ps.X) == 0 || len(ps.X) != len(ps.Y) || len(ps.X) != len(ps.YPurego) {
		t.Fatalf("%s: malformed probe set (%d rows, %d and %d predictions)", what, len(ps.X), len(ps.Y), len(ps.YPurego))
	}
	asmOK, goOK := true, true
	gots := make([]float64, len(ps.X))
	for i, x := range ps.X {
		got := m.Predict(x)
		gots[i] = got
		if runtime.GOARCH != "amd64" {
			if math.Abs(got-ps.Y[i]) > 1e-12*(1+math.Abs(ps.Y[i])) {
				t.Errorf("%s: probe %d predicts %v, the saved model predicted %v", what, i, got, ps.Y[i])
			}
			continue
		}
		asmOK = asmOK && math.Float64bits(got) == math.Float64bits(ps.Y[i])
		goOK = goOK && math.Float64bits(got) == math.Float64bits(ps.YPurego[i])
	}
	if !asmOK && !goOK {
		t.Errorf("%s: predictions match neither what the saved model predicted (%v) nor its pure-Go reading (%v) bit for bit: %v",
			what, ps.Y, ps.YPurego, gots)
	}
}

// TestOldEnvelopesLoadBitwise pins compatibility: files written by the
// version-1 and version-2 writers load through today's decoder and
// predict exactly what the models predicted before they were saved; and
// re-saved as version 3 they still do.
func TestOldEnvelopesLoadBitwise(t *testing.T) {
	probes := readProbes(t)
	for _, name := range vectorFiles {
		old := readVector(t, name)
		wantVersion := `"version":2`
		if strings.HasPrefix(name, "v1_") {
			wantVersion = `"version":1`
		}
		if !bytes.Contains(old[:64], []byte(wantVersion)) {
			t.Fatalf("%s is not a %s file", name, wantVersion)
		}
		m, meta, err := LoadWithMeta(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (meta == nil) != strings.HasPrefix(name, "v1_") {
			t.Errorf("%s: metadata %+v", name, meta)
		}
		checkProbes(t, name, m, probes[name])

		var v3 bytes.Buffer
		if err := SaveWithMeta(&v3, m, meta); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if !bytes.Contains(v3.Bytes()[:64], []byte(`"version":3`)) {
			t.Fatalf("%s: re-saved as %s", name, v3.Bytes()[:64])
		}
		again, _, err := LoadWithMeta(bytes.NewReader(v3.Bytes()))
		if err != nil {
			t.Fatalf("%s: re-saved envelope: %v", name, err)
		}
		checkProbes(t, name+" re-saved as v3", again, probes[name])
	}
}

// TestSaveIsDeterministic pins what the registry's 304 and its "same
// bytes, same version" rule rest on: saving one model twice, or loading
// and saving it again, gives the same bytes.
func TestSaveIsDeterministic(t *testing.T) {
	for _, m := range fittedModels(t) {
		var a, b, c bytes.Buffer
		if err := Save(&a, m); err != nil {
			t.Fatal(err)
		}
		if err := Save(&b, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two saves of one model differ", m.Name())
		}
		loaded, err := Load(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := Save(&c, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Errorf("%s: save → load → save changed the bytes", m.Name())
		}
	}
}

// TestPackedFieldsKeepEveryBit sends the values a decimal spelling is
// most likely to bend — −0, subnormals, MaxFloat64 — through a version-3
// save and load and compares bits, not values.
func TestPackedFieldsKeepEveryBit(t *testing.T) {
	rows := [][]float64{
		{math.Copysign(0, -1), math.SmallestNonzeroFloat64},
		{math.MaxFloat64, 2.2250738585072009e-308},
		{-math.MaxFloat64, 1.0 / 3},
	}
	alpha := []float64{-math.SmallestNonzeroFloat64, math.Nextafter(1, 2), math.Copysign(0, -1)}
	// Spelled the version-2 way, which is how such a model gets in.
	plain, err := json.Marshal(map[string]any{
		"format": formatName, "version": 2, "kind": "lssvm",
		"payload": map[string]any{
			"options": map[string]any{}, "kernel": map[string]any{"kind": "linear"},
			"mean": []float64{0, 0}, "std": []float64{1, 1},
			"train_x": rows, "train_y": alpha, "alpha": alpha,
			"y_std": 1, "dim": 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := Save(&v3, m); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Payload struct {
			TrainX packed.Matrix   `json:"train_x"`
			TrainY json.RawMessage `json:"train_y"`
			Alpha  packed.Floats   `json:"alpha"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(v3.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Payload.TrainY) == 0 || env.Payload.TrainY[0] != '"' {
		t.Fatalf("train_y not written packed: %.40s", env.Payload.TrainY)
	}
	if len(env.Payload.TrainX) != len(rows) {
		t.Fatalf("train_x has %d rows", len(env.Payload.TrainX))
	}
	for i, row := range rows {
		for j, want := range row {
			if got := env.Payload.TrainX[i][j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("train_x[%d][%d] = %v (%#x), want %v (%#x)", i, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for i, want := range alpha {
		if got := env.Payload.Alpha[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("alpha[%d] = %v, want %v", i, got, want)
		}
	}
	// And once more around: version 3 in, the same bytes out.
	again, err := Load(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := Save(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3.Bytes(), second.Bytes()) {
		t.Error("version-3 load → save changed the bytes")
	}
}

// TestNewerVersionRefused pins the sentence a reader gives a file from a
// writer newer than itself. It is the sentence the version-2 reader at
// the parent of this change gives a version-3 file ("unsupported format
// version 3 (want 1..2)"), which is what makes upgrading readers before
// writers safe: the node keeps its last-good model and says why.
func TestNewerVersionRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, fittedModels(t)[0]); err != nil {
		t.Fatal(err)
	}
	newer := strings.Replace(buf.String(), `"version":3`, `"version":4`, 1)
	_, err := Load(strings.NewReader(newer))
	const want = "modelio: unsupported format version 4 (want 1..3)"
	if err == nil || err.Error() != want {
		t.Fatalf("a version-4 file answered %v, want %q", err, want)
	}
}

// TestLoadRejectsBrokenPackedFields walks the packed decoder's
// rejections through the envelope, where the registry meets them.
func TestLoadRejectsBrokenPackedFields(t *testing.T) {
	var good bytes.Buffer
	m, err := Load(bytes.NewReader(readVector(t, "v2_lssvm.json")))
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(&good, m); err != nil {
		t.Fatal(err)
	}
	for name, broken := range brokenPacked(t, good.String()) {
		if broken == good.String() {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := Load(strings.NewReader(broken)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// brokenPacked returns hand-broken variants of a version-3 LS-SVM
// envelope, one per way a packed field can be wrong.
func brokenPacked(t testing.TB, good string) map[string]string {
	t.Helper()
	const key = `"alpha":"`
	at := strings.Index(good, key)
	if at < 0 {
		t.Fatalf("no packed alpha in %.200s", good)
	}
	at += len(key)
	const matrixKey = `"train_x":`
	mx := strings.Index(good, matrixKey)
	if mx < 0 {
		t.Fatalf("no train_x in %.200s", good)
	}
	// replaceMatrix puts another value under train_x and parks the real
	// one under a key the decoder ignores.
	replaceMatrix := func(v string) string {
		return good[:mx] + matrixKey + v + `,"x":` + good[mx+len(matrixKey):]
	}
	// Three elements are 24 bytes are exactly 32 base64 characters.
	nan, err := json.Marshal(packed.Floats{math.NaN(), 1, 1})
	if err != nil || len(nan) != 34 {
		t.Fatalf("packing three elements: %d bytes, %v", len(nan), err)
	}
	return map[string]string{
		"odd length":        good[:at] + "AAAA" + good[at:],
		"NaN bits":          good[:at] + string(nan[1:33]) + good[at+32:],
		"bad base64":        good[:at] + "****" + good[at+4:],
		"rows near MaxInt":  strings.Replace(good, `"train_x":{"rows":80,`, `"train_x":{"rows":9223372036854775807,`, 1),
		"cols near MaxInt":  strings.Replace(good, `"cols":5,`, `"cols":9223372036854775807,`, 1),
		"rows times cols":   strings.Replace(good, `"train_x":{"rows":80,"cols":5,`, `"train_x":{"rows":40,"cols":5,`, 1),
		"fewer rows":        strings.Replace(good, `"train_x":{"rows":80,"cols":5,`, `"train_x":{"rows":100,"cols":4,`, 1),
		"null matrix":       replaceMatrix(`null`),
		"ragged plain rows": replaceMatrix(`[[1,2,3,4,5],[1,2]]`),
	}
}

// FuzzLoadWithMeta feeds LoadWithMeta what the registry's PUT and the
// failover cache file feed it: bytes from outside. It must answer with a
// model or an error, never a panic and never an allocation sized by a
// number in the input; and a model it does return must be usable —
// predict without panicking on the per-row and the batched path, save
// again, and load back predicting bit for bit the same. (Not "predict a
// finite value": a file may carry a zero standard deviation or
// coefficients near MaxFloat64, which always loaded and still do.)
func FuzzLoadWithMeta(f *testing.F) {
	for _, name := range vectorFiles {
		old := readVector(f, name)
		f.Add(old)
		m, meta, err := LoadWithMeta(bytes.NewReader(old))
		if err != nil {
			f.Fatal(err)
		}
		var v3 bytes.Buffer
		if err := SaveWithMeta(&v3, m, meta); err != nil {
			f.Fatal(err)
		}
		f.Add(v3.Bytes())
		if name == "v2_lssvm.json" {
			for _, broken := range brokenPacked(f, v3.String()) {
				f.Add([]byte(broken))
			}
		}
	}
	f.Add([]byte(`{"format":"f2pm-model","version":3,"kind":"m5p","payload":{"dim":1,"root":{"leaf":true,"n":1,"mean":2,"coef":"AAAAAAAA8D8="}}}`))
	f.Add([]byte(`{"format":"f2pm-model","version":3,"kind":"svm","payload":{"dim":1,"kernel":{"kind":"rbf","gamma":1},"mean":[0],"std":[1],"support_x":{"rows":1,"cols":1,"data":"AAAAAAAA8D8="},"beta":"AAAAAAAA8D8="}}`))
	f.Add([]byte(`{"format":"f2pm-model","version":3,"kind":"lssvm","payload":null}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		m, meta, err := LoadWithMeta(bytes.NewReader(in))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := SaveWithMeta(&saved, m, meta); err != nil {
			t.Fatalf("loaded but does not save: %v", err)
		}
		again, _, err := LoadWithMeta(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved but does not load: %v\n%s", err, saved.Bytes())
		}
		// The input's dimension is its own business; try the small ones.
		for dim := 1; dim <= 8; dim++ {
			X := [][]float64{make([]float64, dim), make([]float64, dim)}
			for j := range X[1] {
				X[1][j] = float64(j + 1)
			}
			ml.PredictAll(m, X)
			for _, x := range X {
				a, b := m.Predict(x), again.Predict(x)
				if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("dim %d: predicts %v, after save and load %v", dim, a, b)
				}
			}
		}
	})
}
