package packed

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// awkward holds the values a decimal round trip is most likely to bend.
var awkward = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // subnormals
	2.2250738585072009e-308, // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.Nextafter(1, 2), 6.02214076e23,
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// b64 packs raw uint64 bit patterns the way MarshalJSON would.
func b64(bits ...uint64) string {
	raw := make([]byte, 8*len(bits))
	for i, b := range bits {
		binary.LittleEndian.PutUint64(raw[8*i:], b)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

func TestFloatsRoundTripBitExact(t *testing.T) {
	for _, in := range []Floats{awkward, {}, nil, {42}} {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != '"' {
			t.Fatalf("not written packed: %s", data)
		}
		var out Floats
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if !sameBits(in, out) {
			t.Fatalf("round trip changed bits: %v -> %v", in, out)
		}
	}
}

func TestMatrixRoundTripBitExact(t *testing.T) {
	three := Matrix{awkward[:4], awkward[4:8], awkward[8:12]}
	for _, in := range []Matrix{three, {}, nil, {{7}}} {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != '{' {
			t.Fatalf("not written packed: %s", data)
		}
		var out Matrix
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if len(out) != len(in) {
			t.Fatalf("%d rows -> %d", len(in), len(out))
		}
		for i := range in {
			if !sameBits(in[i], out[i]) {
				t.Fatalf("row %d changed bits: %v -> %v", i, in[i], out[i])
			}
		}
	}
	// Rows of a decoded matrix share a backing array but not capacity:
	// appending to one must not write into the next.
	var m Matrix
	if err := json.Unmarshal([]byte(`{"rows":2,"cols":1,"data":"`+b64(math.Float64bits(1), math.Float64bits(2))+`"}`), &m); err != nil {
		t.Fatal(err)
	}
	_ = append(m[0], 99)
	if m[1][0] != 2 {
		t.Fatalf("append to row 0 overwrote row 1: %v", m)
	}
}

// TestPlainFormsStillDecode pins the compatibility half: what versions 1
// and 2 wrote goes through the same UnmarshalJSON, with encoding/json's
// own number parsing.
func TestPlainFormsStillDecode(t *testing.T) {
	var f Floats
	if err := json.Unmarshal([]byte(`[1.5, -0, 4.9e-324, 1.7976931348623157e308]`), &f); err != nil {
		t.Fatal(err)
	}
	if !sameBits(f, []float64{1.5, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}) {
		t.Fatalf("plain vector decoded as %v", f)
	}
	var m Matrix
	if err := json.Unmarshal([]byte(`[[1,2],[3,4],[5]]`), &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || len(m[2]) != 1 || m[1][1] != 4 {
		t.Fatalf("plain matrix decoded as %v (ragged rows are the model's to reject)", m)
	}
	// null is "absent", as for any slice.
	s := struct {
		F Floats
		M Matrix
	}{F: Floats{1}, M: Matrix{{1}}}
	if err := json.Unmarshal([]byte(`{"F":null,"M":null}`), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.F) != 0 || len(s.M) != 0 {
		t.Fatalf("null left %v %v", s.F, s.M)
	}
}

func TestOmitEmpty(t *testing.T) {
	type doc struct {
		F Floats `json:"f,omitempty"`
		M Matrix `json:"m,omitempty"`
	}
	data, err := json.Marshal(doc{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{}` {
		t.Fatalf("empty packed fields not omitted: %s", data)
	}
}

func TestFloatsRejects(t *testing.T) {
	one := math.Float64bits(1)
	cases := map[string]string{
		"NaN bits":             `"` + b64(one, 0x7FF8000000000001) + `"`,
		"signalling NaN bits":  `"` + b64(0x7FF0000000000001) + `"`,
		"+Inf bits":            `"` + b64(0x7FF0000000000000) + `"`,
		"-Inf bits":            `"` + b64(0xFFF0000000000000, one) + `"`,
		"7 bytes":              `"` + base64.StdEncoding.EncodeToString(make([]byte, 7)) + `"`,
		"12 bytes":             `"` + base64.StdEncoding.EncodeToString(make([]byte, 12)) + `"`,
		"bad base64 character": `"AAAA*AAAAAA="`,
		"missing padding":      `"AAAAAAAAAAA"`,
		"url alphabet":         `"` + strings.ReplaceAll(b64(0x3FFFFFFFFFFFFFFF), "/", "_") + `"`,
		"json escape inside":   `"AAAA\u0041AAAAAA="`,
		"newline inside":       `"AAAAAA\nAAAAA="`,
		"a number":             `1.5`,
		"an object":            `{"data":"AAAAAAAAAAA="}`,
		"array with a string":  `[1,"2"]`,
		"array with a bool":    `[1,true]`,
		"unterminated string":  `"AAAAAAAAAAA=`,
	}
	for name, in := range cases {
		var f Floats
		if err := f.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: %s accepted as %v", name, in, f)
		}
	}
}

func TestMatrixRejects(t *testing.T) {
	four := b64(1, 2, 3, 4)
	maxInt := fmt.Sprint(math.MaxInt)
	cases := map[string]string{
		"rows*cols too small":         `{"rows":1,"cols":2,"data":"` + four + `"}`,
		"rows*cols too large":         `{"rows":3,"cols":2,"data":"` + four + `"}`,
		"cols does not divide":        `{"rows":1,"cols":3,"data":"` + four + `"}`,
		"negative rows":               `{"rows":-2,"cols":-2,"data":"` + four + `"}`,
		"zero cols with data":         `{"rows":4,"cols":0,"data":"` + four + `"}`,
		"rows near MaxInt, no data":   `{"rows":` + maxInt + `,"cols":0,"data":""}`,
		"rows near MaxInt, one col":   `{"rows":` + maxInt + `,"cols":1,"data":"` + four + `"}`,
		"product overflows to 4":      `{"rows":4611686018427387905,"cols":4,"data":"` + four + `"}`,
		"cols near MaxInt":            `{"rows":1,"cols":` + maxInt + `,"data":"` + four + `"}`,
		"rows beyond int":             `{"rows":1e30,"cols":1,"data":""}`,
		"missing data":                `{"rows":2,"cols":2}`,
		"null data":                   `{"rows":2,"cols":2,"data":null}`,
		"NaN in data":                 `{"rows":1,"cols":1,"data":"` + b64(0x7FF8000000000000) + `"}`,
		"odd byte count":              `{"rows":1,"cols":1,"data":"AAAA"}`,
		"bad base64":                  `{"rows":1,"cols":1,"data":"!!!!!!!!!!!="}`,
		"a string":                    `"` + four + `"`,
		"plain rows of wrong type":    `[[1],["x"]]`,
		"plain flat array":            `[1,2,3]`,
		"rows given as string":        `{"rows":"2","cols":2,"data":"` + four + `"}`,
		"truncated object":            `{"rows":2,"cols":2,"data":"` + four,
		"zero rows but leftover data": `{"rows":0,"cols":4,"data":"` + four + `"}`,
	}
	for name, in := range cases {
		var m Matrix
		if err := m.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: %s accepted as %v", name, in, m)
		}
	}
	// The same header with plain data is fine: data is a Floats.
	var m Matrix
	if err := json.Unmarshal([]byte(`{"rows":2,"cols":2,"data":[1,2,3,4]}`), &m); err != nil || m[1][0] != 3 {
		t.Fatalf("packed header over a plain data array: %v %v", m, err)
	}
}

func TestMatrixMarshalRejects(t *testing.T) {
	if _, err := json.Marshal(Matrix{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix marshalled")
	}
	if _, err := json.Marshal(Matrix{{}, {}}); err == nil {
		t.Error("rows without columns marshalled; UnmarshalJSON could not read them back")
	}
}
