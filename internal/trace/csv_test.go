package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenHistory is the history testdata/history.csv holds, as the
// one-shot WriteCSV wrote it before CSVWriter existed: failed runs, a
// fail event without datapoints straight after a run with some, and a
// truncated run.
func goldenHistory() *History {
	h := sampleHistory(3, 5)
	h.Runs[1].Datapoints[2].Features[CPUUser] = 1.0 / 3
	h.Runs[1].Datapoints[3].Features[MemUsed] = 1.5e21
	h.Runs = append(h.Runs,
		Run{Failed: true, FailTime: 2.5},
		Run{Datapoints: []Datapoint{sampleDatapoint(0), sampleDatapoint(1.5)}})
	return h
}

// TestCSVWriterMatchesWriteCSV pins the file format across the rebuild:
// WriteCSV, and a CSVWriter flushed after every run as a daemon uses
// it, both produce the bytes the old one-shot writer did.
func TestCSVWriterMatchesWriteCSV(t *testing.T) {
	golden, err := os.ReadFile("testdata/history.csv")
	if err != nil {
		t.Fatal(err)
	}
	h := goldenHistory()

	var whole bytes.Buffer
	if err := WriteCSV(&whole, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), golden) {
		t.Fatalf("WriteCSV output changed:\n%s", whole.Bytes())
	}

	var streamed bytes.Buffer
	w, err := NewCSVWriter(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range h.Runs {
		if err := w.WriteRun(&h.Runs[ri]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(streamed.Bytes(), golden) {
		t.Fatalf("streamed output differs from WriteCSV's:\n%s", streamed.Bytes())
	}
}

// FuzzReadCSV: ReadCSV never panics, and whatever it accepts is a valid
// history that WriteCSV and ReadCSV carry round unchanged.
func FuzzReadCSV(f *testing.F) {
	golden, err := os.ReadFile("testdata/history.csv")
	if err != nil {
		f.Fatal(err)
	}
	valid := string(golden)
	f.Add(valid)
	f.Add(valid[:strings.Index(valid, "\n")+1]) // header only
	f.Add("")
	// The malformed vectors of TestReadCSVErrors and its neighbours.
	f.Add(strings.Replace(valid, "run,event", "xxx,event", 1))
	f.Add(strings.Replace(valid, "\n0,sample", "\nzz,sample", 1))
	f.Add(strings.Replace(valid, "sample", "bogus", 1))
	f.Add(strings.Replace(valid, "\n0,fail", "\n2,fail", 1))
	f.Add(valid[:len(valid)-40])
	f.Add(valid + "4,fail,99,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n4,sample,99,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n")
	f.Add(strings.Replace(valid, "1.5e+21", "NaN", 1))

	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted an invalid history: %v", err)
		}
		var first bytes.Buffer
		if err := WriteCSV(&first, h); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejected its own output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteCSV(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the history:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
