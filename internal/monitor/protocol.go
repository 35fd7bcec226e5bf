// Package monitor implements the paper's feature-monitoring utilities
// (§III-E): the Feature Monitor Client (FMC), a thin client that
// periodically samples system features and generates datapoints, and the
// Feature Monitor Server (FMS), which receives datapoints over standard
// TCP/IP sockets and assembles the data history. FMC and FMS can run on
// the same machine or on different machines, exactly as the paper's
// deployment allows.
//
// Feature sources are pluggable: a /proc-based source samples a real
// Linux host, and a simulator-backed source samples a sysmodel.Machine.
package monitor

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Message is the FMC→FMS wire unit, one JSON object per line.
type Message struct {
	// Type is "hello", "datapoint", "fail", or "bye".
	Type string `json:"type"`
	// ClientID identifies the monitored system (hello only).
	ClientID string `json:"client_id,omitempty"`
	// Tgen is the elapsed time since the monitored system started
	// (datapoint and fail).
	Tgen float64 `json:"tgen,omitempty"`
	// Features holds the sampled values in trace feature order
	// (datapoint only).
	Features []float64 `json:"features,omitempty"`
}

// Message types.
const (
	TypeHello     = "hello"
	TypeDatapoint = "datapoint"
	TypeFail      = "fail"
	TypeBye       = "bye"
)

// Validate checks structural invariants.
func (m *Message) Validate() error {
	switch m.Type {
	case TypeHello:
		if m.ClientID == "" {
			return fmt.Errorf("monitor: hello without client id")
		}
	case TypeDatapoint:
		if len(m.Features) != trace.NumFeatures {
			return fmt.Errorf("monitor: datapoint with %d features, want %d", len(m.Features), trace.NumFeatures)
		}
		if m.Tgen < 0 {
			return fmt.Errorf("monitor: datapoint with negative tgen %v", m.Tgen)
		}
	case TypeFail:
		if m.Tgen < 0 {
			return fmt.Errorf("monitor: fail with negative tgen %v", m.Tgen)
		}
	case TypeBye:
	default:
		return fmt.Errorf("monitor: unknown message type %q", m.Type)
	}
	return nil
}

// Datapoint converts a datapoint message to a trace.Datapoint.
func (m *Message) Datapoint() (trace.Datapoint, error) {
	var d trace.Datapoint
	if m.Type != TypeDatapoint {
		return d, fmt.Errorf("monitor: message type %q is not a datapoint", m.Type)
	}
	if err := m.Validate(); err != nil {
		return d, err
	}
	d.Tgen = m.Tgen
	copy(d.Features[:], m.Features)
	return d, d.Validate()
}

// DatapointMessage builds the wire form of a datapoint.
func DatapointMessage(d *trace.Datapoint) Message {
	return Message{
		Type:     TypeDatapoint,
		Tgen:     d.Tgen,
		Features: append([]float64(nil), d.Features[:]...),
	}
}

// writeMessage encodes one message as a JSON line.
func writeMessage(w *bufio.Writer, m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	enc, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("monitor: encoding message: %w", err)
	}
	if _, err := w.Write(enc); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	return w.Flush()
}

// maxFrame bounds one wire line, newline included. The server reads
// through a buffer of exactly this size, so a client that never sends a
// newline costs it this much memory and no more.
const maxFrame = 64 << 10

// errFrameTooLong reports a line that does not fit the reader's buffer.
var errFrameTooLong = errors.New("monitor: message exceeds the frame limit")

// readFrame returns the next line, newline included, as a view into r's
// buffer that the next read overwrites. io.EOF, returned bare, is a
// stream that ended between lines; a line longer than the buffer is
// errFrameTooLong; anything else is the transport failing mid-line.
func readFrame(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	switch {
	case err == nil:
		return line, nil
	case err == bufio.ErrBufferFull:
		return nil, errFrameTooLong
	case err == io.EOF && len(line) == 0:
		return nil, io.EOF
	}
	return nil, fmt.Errorf("monitor: reading message: %w", err)
}

// decodeMessage parses and validates one JSON line.
func decodeMessage(line []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("monitor: decoding message: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
