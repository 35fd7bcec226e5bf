package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV layout: a header row, then one row per event. Columns:
//
//	run, event, tgen, <feature columns...>
//
// event is "sample" for datapoints and "fail" for fail events; fail rows
// repeat the feature values of the moment of failure (zeros if unknown).
// Runs must appear contiguously with non-decreasing run ids.

const (
	eventSample = "sample"
	eventFail   = "fail"
)

// CSVWriter streams a history to CSV one run at a time: the header goes
// out when the writer is created, each WriteRun appends that run's rows
// under the next run id, and nothing but the current row is held in
// memory. A daemon appends runs as they close; WriteCSV is the same
// writer fed a whole history.
type CSVWriter struct {
	cw   *csv.Writer
	row  []string
	runs int
}

// NewCSVWriter writes the CSV header to w and returns a writer whose
// first WriteRun is run 0.
func NewCSVWriter(w io.Writer) (*CSVWriter, error) {
	cw := csv.NewWriter(w)
	header := append([]string{"run", "event", "tgen"}, FeatureNames()...)
	if err := cw.Write(header); err != nil {
		return nil, fmt.Errorf("trace: writing CSV header: %w", err)
	}
	return &CSVWriter{cw: cw, row: make([]string, len(header))}, nil
}

// WriteRun appends one run: its datapoints, then the fail row when the
// run failed. Output is buffered; call Flush to push it to the
// underlying writer.
func (w *CSVWriter) WriteRun(r *Run) error {
	row := w.row
	row[0] = strconv.Itoa(w.runs)
	w.runs++
	row[1] = eventSample
	for di := range r.Datapoints {
		d := &r.Datapoints[di]
		row[2] = formatFloat(d.Tgen)
		for fi, v := range d.Features {
			row[3+fi] = formatFloat(v)
		}
		if err := w.cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV row: %w", err)
		}
	}
	if !r.Failed {
		return nil
	}
	// The fail row repeats the last sample's features, which row still
	// holds; with no sample it carries zeros.
	row[1] = eventFail
	row[2] = formatFloat(r.FailTime)
	if len(r.Datapoints) == 0 {
		for fi := 0; fi < NumFeatures; fi++ {
			row[3+fi] = "0"
		}
	}
	if err := w.cw.Write(row); err != nil {
		return fmt.Errorf("trace: writing CSV fail row: %w", err)
	}
	return nil
}

// Flush writes buffered rows to the underlying writer and reports any
// error a write has hit so far.
func (w *CSVWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// WriteCSV serializes the history to w.
func WriteCSV(w io.Writer, h *History) error {
	cw, err := NewCSVWriter(w)
	if err != nil {
		return err
	}
	for ri := range h.Runs {
		if err := cw.WriteRun(&h.Runs[ri]); err != nil {
			return err
		}
	}
	return cw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ReadCSV parses a history previously written by WriteCSV. It validates
// the header, run contiguity, and event ordering, returning descriptive
// errors for malformed input.
func ReadCSV(r io.Reader) (*History, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3 + NumFeatures

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	want := append([]string{"run", "event", "tgen"}, FeatureNames()...)
	for i := range want {
		if header[i] != want[i] {
			return nil, fmt.Errorf("trace: CSV header column %d is %q, want %q", i, header[i], want[i])
		}
	}

	h := &History{}
	curRun := -1
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV line %d: %w", line, err)
		}
		runID, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad run id %q", line, rec[0])
		}
		switch {
		case runID == curRun:
			// continuing current run
		case runID == curRun+1:
			h.Runs = append(h.Runs, Run{})
			curRun = runID
		default:
			return nil, fmt.Errorf("trace: line %d: run id %d not contiguous after %d", line, runID, curRun)
		}
		run := &h.Runs[curRun]
		tgen, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad tgen %q", line, rec[2])
		}
		switch rec[1] {
		case eventSample:
			if run.Failed {
				return nil, fmt.Errorf("trace: line %d: sample after fail event in run %d", line, curRun)
			}
			var d Datapoint
			d.Tgen = tgen
			for fi := 0; fi < NumFeatures; fi++ {
				v, err := strconv.ParseFloat(rec[3+fi], 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad %s value %q", line, FeatureIndex(fi).Name(), rec[3+fi])
				}
				d.Features[fi] = v
			}
			run.Datapoints = append(run.Datapoints, d)
		case eventFail:
			if run.Failed {
				return nil, fmt.Errorf("trace: line %d: duplicate fail event in run %d", line, curRun)
			}
			run.Failed = true
			run.FailTime = tgen
		default:
			return nil, fmt.Errorf("trace: line %d: unknown event %q", line, rec[1])
		}
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}
