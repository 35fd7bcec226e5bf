package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	f2pm "repro"
)

// TestHistoryFilesRoundTrip streams runs from two clients through a
// real server into history files — closed runs as they close, the
// unfinished one at shutdown — and reads back exactly what was sent.
func TestHistoryFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	files := newHistoryFiles(dir)
	srv, err := f2pm.NewMonitorServer("127.0.0.1:0", f2pm.WithMonitorRunSink(files.sink))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The second id tries to leave the directory.
	sent := map[string]*f2pm.History{"vm-1": {}, "../../vm/2": {}}
	var total int64
	for id, h := range sent {
		cli, err := f2pm.DialMonitor(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			var run f2pm.Run
			for i := 0; i <= 5+r; i++ {
				var d f2pm.Datapoint
				d.Tgen = 1.5 * float64(i)
				d.Features[f2pm.MemUsed] = 1e6/3 + float64(r*100+i)
				d.Features[f2pm.CPUIdle] = 75
				if err := cli.SendDatapoint(&d); err != nil {
					t.Fatal(err)
				}
				run.Datapoints = append(run.Datapoints, d)
			}
			if r < 3 { // the last run stays open
				run.Failed, run.FailTime = true, 1.5*float64(6+r)
				if err := cli.SendFail(run.FailTime); err != nil {
					t.Fatal(err)
				}
			}
			h.Runs = append(h.Runs, run)
			total += int64(len(run.Datapoints))
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := srv.Stats(); st.Datapoints == total && st.ConnsOpen == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("server never drained: %s", st)
		}
	}

	// Closed runs are on disk while the server still runs.
	early, err := readHistory(filepath.Join(dir, "history-vm-1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (&f2pm.History{Runs: sent["vm-1"].Runs[:3]}); !reflect.DeepEqual(early, want) {
		t.Fatalf("before shutdown the file holds\n%+v\nwant the three closed runs\n%+v", early, want)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	files.finish(srv)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d files in the output directory, want 2", len(entries))
	}
	for id, name := range map[string]string{"vm-1": "history-vm-1.csv", "../../vm/2": "history-..%2F..%2Fvm%2F2.csv"} {
		got, err := readHistory(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sent[id]) {
			t.Fatalf("%s holds\n%+v\nwant\n%+v", name, got, sent[id])
		}
	}
}

func readHistory(path string) (*f2pm.History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f2pm.ReadHistoryCSV(f)
}
