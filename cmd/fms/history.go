package main

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"

	f2pm "repro"
)

// historyFiles keeps one history-<id>.csv per client under dir. Runs
// are appended and flushed as they close (sink is the server's run
// sink), the unfinished ones when the server has stopped (finish), so
// the files hold every run received while the server holds only its
// bounded window of them.
type historyFiles struct {
	dir string

	mu    sync.Mutex // guards files; each file has its own lock
	files map[string]*historyFile
}

type historyFile struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	w         *f2pm.HistoryCSVWriter
	runs, dps int
}

func newHistoryFiles(dir string) *historyFiles {
	return &historyFiles{dir: dir, files: make(map[string]*historyFile)}
}

// file returns the client's CSV, created (truncating a previous
// session's) on its first run. The id comes off the wire: escaped, it
// cannot name a path outside dir.
func (h *historyFiles) file(id string) (*historyFile, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hf, ok := h.files[id]; ok {
		return hf, nil
	}
	path := filepath.Join(h.dir, "history-"+url.PathEscape(id)+".csv")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := f2pm.NewHistoryCSVWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	hf := &historyFile{path: path, f: f, w: w}
	h.files[id] = hf
	return hf, nil
}

// append writes one run to the client's file and flushes it.
func (h *historyFiles) append(id string, run *f2pm.Run) error {
	hf, err := h.file(id)
	if err != nil {
		return err
	}
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if err := hf.w.WriteRun(run); err != nil {
		return err
	}
	hf.runs++
	hf.dps += len(run.Datapoints)
	return hf.w.Flush()
}

// sink is the monitor server's run sink.
func (h *historyFiles) sink(id string, run f2pm.Run) {
	if err := h.append(id, &run); err != nil {
		fmt.Fprintf(os.Stderr, "fms: history of %s: %v\n", id, err)
	}
}

// finish appends every client's unfinished run, closes the files and
// reports them. Call it once the server is closed.
func (h *historyFiles) finish(srv *f2pm.MonitorServer) {
	for _, id := range srv.Clients() {
		hist, ok := srv.History(id)
		if !ok || len(hist.Runs) == 0 {
			continue
		}
		// Closed runs went through sink; an open one is reported last,
		// unfailed.
		if last := &hist.Runs[len(hist.Runs)-1]; !last.Failed {
			h.sink(id, *last)
		}
	}
	for _, hf := range h.files {
		if err := hf.f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fms:", err)
		}
		fmt.Fprintf(os.Stderr, "fms: wrote %s (%d runs, %d datapoints)\n", hf.path, hf.runs, hf.dps)
	}
}
