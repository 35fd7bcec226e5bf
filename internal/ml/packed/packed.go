// Package packed gives the model payloads their two bulk float types:
// a vector and a matrix that marshal as base64 of little-endian float64
// bits inside ordinary JSON, and unmarshal from that or from the plain
// JSON arrays envelope versions 1 and 2 wrote. One decoder reads every
// version; the container stays JSON.
//
// A packed vector is a JSON string, standard padded base64 with no JSON
// escapes, of 8 bytes per element. A packed matrix is
// {"rows":R,"cols":C,"data":<packed vector of R*C elements, row-major>}.
// The decoder rejects what plain JSON could never have carried (NaN and
// ±Inf bit patterns), byte counts that are not a multiple of 8, and a
// header that disagrees with the decoded length; it sizes every
// allocation from the bytes it was handed, never from the header.
package packed

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Floats is a []float64 with the packed JSON form.
type Floats []float64

// Matrix is a rectangular [][]float64 with the packed JSON form. A
// decoded packed matrix's rows share one backing array.
type Matrix [][]float64

// expMask covers the exponent bits, all set only in NaN and ±Inf.
const expMask = 0x7FF << 52

// appendPacked appends the quoted base64 of the rows' bits to dst.
func appendPacked(dst []byte, rows ...[]float64) []byte {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	raw := make([]byte, 8*n)
	at := raw
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint64(at, math.Float64bits(v))
			at = at[8:]
		}
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, raw)
	return append(dst, '"')
}

// MarshalJSON writes the packed string; a nil slice is an empty one.
func (f Floats) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 2+base64.StdEncoding.EncodedLen(8*len(f)))
	return appendPacked(out, f), nil
}

// UnmarshalJSON reads the packed string or a plain JSON array of
// numbers; null leaves an empty slice.
func (f *Floats) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*[]float64)(f))
	}
	if len(data) < 2 || data[len(data)-1] != '"' {
		return fmt.Errorf("packed: unterminated string")
	}
	raw, err := base64.StdEncoding.AppendDecode(nil, data[1:len(data)-1])
	if err != nil {
		return fmt.Errorf("packed: %w", err)
	}
	if len(raw)%8 != 0 {
		return fmt.Errorf("packed: %d bytes is not a whole number of float64s", len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		bits := binary.LittleEndian.Uint64(raw[8*i:])
		if bits&expMask == expMask {
			return fmt.Errorf("packed: element %d is NaN or infinite", i)
		}
		out[i] = math.Float64frombits(bits)
	}
	*f = out
	return nil
}

// MarshalJSON writes {"rows","cols","data"}; it fails on ragged rows
// and on rows without columns, which UnmarshalJSON could not size.
func (m Matrix) MarshalJSON() ([]byte, error) {
	cols := 0
	if len(m) > 0 {
		if cols = len(m[0]); cols == 0 {
			return nil, fmt.Errorf("packed: %d rows without columns", len(m))
		}
	}
	for i, r := range m {
		if len(r) != cols {
			return nil, fmt.Errorf("packed: row %d has %d columns, want %d", i, len(r), cols)
		}
	}
	out := make([]byte, 0, 64+base64.StdEncoding.EncodedLen(8*len(m)*cols))
	out = append(out, `{"rows":`...)
	out = strconv.AppendInt(out, int64(len(m)), 10)
	out = append(out, `,"cols":`...)
	out = strconv.AppendInt(out, int64(cols), 10)
	out = append(out, `,"data":`...)
	out = appendPacked(out, m...)
	return append(out, '}'), nil
}

// UnmarshalJSON reads the packed object or a plain JSON array of
// arrays (whose row lengths the caller checks, as it always did).
func (m *Matrix) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '{' {
		return json.Unmarshal(data, (*[][]float64)(m))
	}
	var h struct {
		Rows int    `json:"rows"`
		Cols int    `json:"cols"`
		Data Floats `json:"data"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return err
	}
	// Checked by division against the decoded length: rows*cols may
	// overflow, and rows alone sizes the slice of row headers.
	n := len(h.Data)
	switch {
	case h.Rows == 0 && h.Cols >= 0 && n == 0:
	case h.Rows > 0 && h.Cols > 0 && n%h.Cols == 0 && n/h.Cols == h.Rows:
	default:
		return fmt.Errorf("packed: %d×%d matrix with %d elements", h.Rows, h.Cols, n)
	}
	out := make([][]float64, h.Rows)
	for i := range out {
		out[i] = h.Data[i*h.Cols : (i+1)*h.Cols : (i+1)*h.Cols]
	}
	*m = out
	return nil
}
