// Command gen writes the envelope compatibility vectors next to it:
// one v2_<kind>.json per model kind through SaveWithMeta, v1_svm.json
// (Save's bytes with the version field rewritten to 1, which is all that
// separated the two formats when no metadata is attached), and
// probes.json with a few input rows per file and the predictions the
// freshly trained model gave for them ("y").
//
// The kernel models' predictions depend in their last bits on which dot
// kernel internal/mat runs, so a second pass, built with -tags purego,
// loads the files just written and records what that path predicts
// ("y_purego"); a test accepts either, whole.
//
// The committed files were written by running this at commit 543c509,
// the last one whose SaveWithMeta wrote format version 2:
//
//	go run ./internal/ml/modelio/testdata/gen internal/ml/modelio/testdata
//	go run -tags purego ./internal/ml/modelio/testdata/gen -reprobe internal/ml/modelio/testdata
//
// Run at a later commit it writes that commit's format under the same
// names, so rename the outputs when adding vectors for a new version.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/aggregate"
	"repro/internal/ml"
	"repro/internal/ml/lasso"
	"repro/internal/ml/linreg"
	"repro/internal/ml/lssvm"
	"repro/internal/ml/m5p"
	"repro/internal/ml/modelio"
	"repro/internal/ml/reptree"
	"repro/internal/ml/svm"
	"repro/internal/randx"
)

const dim = 5

// probeSet is one entry of probes.json.
type probeSet struct {
	X       [][]float64 `json:"x"`
	Y       []float64   `json:"y"`
	YPurego []float64   `json:"y_purego,omitempty"`
}

func row(src *randx.Source) []float64 {
	x := make([]float64, dim)
	for j := range x {
		x[j] = src.Uniform(0, 10) * math.Pow(10, float64(j-2))
	}
	return x
}

func target(x []float64, src *randx.Source) float64 {
	return 3*x[0] + 20*math.Sin(x[1]) - x[2]*x[2]/50 + x[3]/100 + src.Norm(0, 0.2)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
}

// reprobe loads every envelope probes.json names and records what this
// build predicts for its rows.
func reprobe(dir string) {
	path := filepath.Join(dir, "probes.json")
	data, err := os.ReadFile(path)
	must(err)
	probes := map[string]probeSet{}
	must(json.Unmarshal(data, &probes))
	for file, ps := range probes {
		f, err := os.Open(filepath.Join(dir, file))
		must(err)
		m, err := modelio.Load(f)
		must(err)
		f.Close()
		ps.YPurego = nil
		for _, x := range ps.X {
			ps.YPurego = append(ps.YPurego, m.Predict(x))
		}
		probes[file] = ps
	}
	writeProbes(path, probes)
}

func writeProbes(path string, probes map[string]probeSet) {
	out, err := json.MarshalIndent(probes, "", " ")
	must(err)
	must(os.WriteFile(path, append(out, '\n'), 0o644))
}

func main() {
	again := flag.Bool("reprobe", false, "load the envelopes already in <dir> and add this build's predictions as y_purego")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gen [-reprobe] <dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	if *again {
		reprobe(dir)
		return
	}
	src := randx.New(2015)
	var X [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		x := row(src)
		X = append(X, x)
		y = append(y, target(x, src))
	}
	probeX := make([][]float64, 6)
	for i := range probeX {
		probeX[i] = row(src)
	}

	las, err := lasso.New(lasso.DefaultOptions(0.01))
	must(err)
	tree, err := m5p.New(m5p.DefaultOptions())
	must(err)
	rep, err := reptree.New(reptree.DefaultOptions())
	must(err)
	sv, err := svm.New(svm.DefaultOptions())
	must(err)
	ls, err := lssvm.New(lssvm.DefaultOptions())
	must(err)
	agg := aggregate.Config{WindowSec: 30, IncludeSlopes: true, IncludeIntergen: true}
	meta := &modelio.Meta{
		Features:    []string{"mem_used", "mem_used_slope", "num_threads", "cpu_user", "intergen"},
		Aggregation: &agg,
	}
	kinds := []struct {
		name string
		m    ml.Regressor
	}{
		{"linear", linreg.New()}, {"lasso", las}, {"m5p", tree},
		{"reptree", rep}, {"svm", sv}, {"lssvm", ls},
	}
	probes := map[string]probeSet{}
	write := func(file string, data []byte, m ml.Regressor) {
		must(os.WriteFile(filepath.Join(dir, file), data, 0o644))
		ps := probeSet{X: probeX}
		for _, x := range probeX {
			ps.Y = append(ps.Y, m.Predict(x))
		}
		probes[file] = ps
	}
	for _, k := range kinds {
		must(k.m.Fit(X, y))
		var buf bytes.Buffer
		must(modelio.SaveWithMeta(&buf, k.m, meta))
		write("v2_"+k.name+".json", buf.Bytes(), k.m)
	}
	var buf bytes.Buffer
	must(modelio.Save(&buf, sv))
	v1 := bytes.Replace(buf.Bytes(), []byte(`"version":2`), []byte(`"version":1`), 1)
	if bytes.Equal(v1, buf.Bytes()) {
		must(fmt.Errorf("Save no longer writes version 2; v1_svm.json would not be a v1 file"))
	}
	write("v1_svm.json", v1, sv)

	writeProbes(filepath.Join(dir, "probes.json"), probes)
}
