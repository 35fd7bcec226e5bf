package monitor

import (
	"bufio"
	"encoding/json"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// waitStats polls the server's counters until ok accepts them.
func waitStats(t *testing.T, srv *Server, what string, ok func(ServerStats) bool) ServerStats {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %s", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawClient speaks the wire protocol without a flush per message, so a
// test can push a hundred thousand datapoints in the time it has. Write
// errors stick to the bufio.Writer and surface at flush.
type rawClient struct {
	conn net.Conn
	w    *bufio.Writer
	line []byte
}

func dialRaw(t *testing.T, srv *Server, id string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawClient{conn: conn, w: bufio.NewWriter(conn)}
	c.send(&Message{Type: TypeHello, ClientID: id})
	return c
}

func (c *rawClient) send(m *Message) {
	line, err := json.Marshal(m)
	if err != nil {
		panic(err) // a test's own message
	}
	c.w.Write(append(line, '\n'))
}

// datapoint sends a datapoint at tgen whose first feature is tag and
// whose others are zero, spelled out by hand: encoding/json under the
// race detector would be most of a large test's time.
func (c *rawClient) datapoint(tgen, tag int) {
	c.line = append(c.line[:0], `{"type":"datapoint","tgen":`...)
	c.line = strconv.AppendInt(c.line, int64(tgen), 10)
	c.line = append(c.line, `,"features":[`...)
	c.line = strconv.AppendInt(c.line, int64(tag), 10)
	c.line = append(c.line, zeroFeatures...)
	c.w.Write(c.line)
}

var zeroFeatures = strings.Repeat(",0", trace.NumFeatures-1) + "]}\n"

func (c *rawClient) flush(t *testing.T) {
	t.Helper()
	if err := c.w.Flush(); err != nil {
		t.Error(err)
	}
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestServerRetentionBound pushes ten times the per-client budget over
// loopback TCP from each of two clients, side by side: one as many
// short runs, the other as one run that never fails. Either way the
// server keeps at most the budget, the newest part of it, and the sink
// sees every closed run.
func TestServerRetentionBound(t *testing.T) {
	const (
		runLen   = 128
		runs     = 10 * retainBudget / runLen
		keptRuns = retainBudget / runLen
		long     = 10 * retainBudget
		// What a full record may hold on the heap: the budget twice
		// over, for slices that grew past what they hold.
		heapBound = int64(2 * retainBudget * 8 * (1 + trace.NumFeatures))
	)
	var (
		sinkMu sync.Mutex
		sunk   = map[string][]int{} // per client, the tag each sunk run carried
	)
	sink := func(id string, run trace.Run) {
		tag := -2
		if run.Failed && len(run.Datapoints) > 0 {
			tag = int(run.Datapoints[0].Features[0])
		}
		sinkMu.Lock()
		sunk[id] = append(sunk[id], tag)
		sinkMu.Unlock()
	}
	heap0 := heapAfterGC()
	srv, err := NewServer("127.0.0.1:0", WithRunSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shortCli, longCli := dialRaw(t, srv, "short"), dialRaw(t, srv, "long")

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Run r: runLen datapoints at Tgen 0..runLen-1, tagged r.
		for r := 0; r < runs; r++ {
			for i := 0; i < runLen; i++ {
				shortCli.datapoint(i, r)
			}
			shortCli.send(&Message{Type: TypeFail, Tgen: runLen})
		}
		shortCli.flush(t)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < long; i++ {
			longCli.datapoint(i, -1)
		}
		longCli.flush(t)
	}()
	wg.Wait()
	st := waitStats(t, srv, "both clients' streams", func(st ServerStats) bool {
		return st.Fails == runs && st.Datapoints == runs*runLen+long
	})

	// The short runs: the newest keptRuns of them, whole.
	h, _ := srv.History("short")
	if len(h.Runs) != keptRuns || h.TotalDatapoints() != retainBudget {
		t.Fatalf("retained %d runs / %d datapoints, want the newest %d / %d",
			len(h.Runs), h.TotalDatapoints(), keptRuns, retainBudget)
	}
	for i, run := range h.Runs {
		want := float64(runs - keptRuns + i)
		if !run.Failed || len(run.Datapoints) != runLen || run.Datapoints[0].Features[0] != want {
			t.Fatalf("retained run %d is not run %v whole (%d datapoints, failed %v): eviction is not oldest-first",
				i, want, len(run.Datapoints), run.Failed)
		}
	}
	sinkMu.Lock()
	if len(sunk["short"]) != runs || len(sunk["long"]) != 0 {
		t.Fatalf("sink saw %d + %d runs, want %d + 0", len(sunk["short"]), len(sunk["long"]), runs)
	}
	for i, tag := range sunk["short"] {
		if tag != i {
			t.Fatalf("sink call %d carried run %d: not every run once and in order", i, tag)
		}
	}
	sinkMu.Unlock()

	// The long run: its newest datapoints, in order.
	h, _ = srv.History("long")
	if len(h.Runs) != 1 || h.Runs[0].Failed {
		t.Fatalf("long client has %d runs, want its open run alone", len(h.Runs))
	}
	open := h.Runs[0].Datapoints
	if len(open) > retainBudget || len(open) <= retainBudget-openTrim {
		t.Fatalf("open run retains %d datapoints, want within (%d, %d]", len(open), retainBudget-openTrim, retainBudget)
	}
	for i, d := range open {
		if want := float64(long - len(open) + i); d.Tgen != want {
			t.Fatalf("open run datapoint %d has Tgen %v, want %v: not the newest, in order", i, d.Tgen, want)
		}
	}
	if st.RunsEvicted != runs-keptRuns || st.DatapointsTrimmed != int64(long-len(open)) {
		t.Fatalf("after both streams: %s", st)
	}
	keptOpen := len(open)
	h, open = nil, nil
	if grew := int64(heapAfterGC()) - int64(heap0); grew > 2*heapBound {
		t.Fatalf("heap grew %d B over %d datapoints from two clients, bound %d B", grew, runs*runLen+long, 2*heapBound)
	}

	// A record full of closed runs gives them all up, oldest first,
	// before its open run loses a datapoint.
	for i := 0; i < retainBudget; i++ {
		shortCli.datapoint(i, runs)
	}
	shortCli.flush(t)
	st = waitStats(t, srv, "the short client's open run", func(st ServerStats) bool {
		return st.Datapoints == runs*runLen+long+retainBudget
	})
	if h, _ = srv.History("short"); len(h.Runs) != 1 || len(h.Runs[0].Datapoints) != retainBudget ||
		st.RunsEvicted != runs || st.DatapointsTrimmed != int64(long-keptOpen) {
		t.Fatalf("a full open run beside %d closed ones: %s", len(h.Runs)-1, st)
	}

	// A trimmed run's fail event hands the sink what is left of it.
	longCli.send(&Message{Type: TypeFail, Tgen: long})
	longCli.flush(t)
	waitStats(t, srv, "the long run closed", func(st ServerStats) bool { return st.Fails == runs+1 })
	h, _ = srv.History("long")
	if len(h.Runs) != 1 || !h.Runs[0].Failed || h.TotalDatapoints() != keptOpen {
		t.Fatalf("closed long run: %d runs, %d datapoints, want 1 / %d", len(h.Runs), h.TotalDatapoints(), keptOpen)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	sinkMu.Lock()
	defer sinkMu.Unlock()
	if len(sunk["long"]) != 1 || sunk["long"][0] != -1 {
		t.Fatalf("sink saw %v from the long client, want its one run", sunk["long"])
	}
}

// TestServerBoundsFailOnlyClient: a closed run without datapoints is
// charged to the budget too, so fail events alone cannot grow a record.
func TestServerBoundsFailOnlyClient(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := dialRaw(t, srv, "fails")
	const fails = retainBudget + 100
	for i := 0; i < fails; i++ {
		cli.send(&Message{Type: TypeFail, Tgen: float64(i)})
	}
	cli.flush(t)
	st := waitStats(t, srv, "every fail", func(st ServerStats) bool { return st.Fails == fails })
	h, _ := srv.History("fails")
	if len(h.Runs) != retainBudget || st.RunsEvicted != 100 || h.Runs[0].FailTime != 100 {
		t.Fatalf("retained %d empty runs from fail time %v, want %d from 100: %s",
			len(h.Runs), h.Runs[0].FailTime, retainBudget, st)
	}
}

// TestServerCountsEveryDrop drives each way the server refuses input
// and checks that it is counted and costs the offender's connection
// only.
func TestServerCountsEveryDrop(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := sampleDatapoint(1)
	dp := DatapointMessage(&d)

	// A first message that is not a hello.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMessage(bufio.NewWriter(conn), &dp); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, "the bad hello", func(st ServerStats) bool { return st.BadHello == 1 && st.ConnsOpen == 0 })

	// A line that never ends: the connection is closed at the frame
	// limit, what the client sent before it stays.
	big := dialRaw(t, srv, "big-frame")
	big.send(&dp)
	big.send(&Message{Type: TypeFail, Tgen: 2})
	big.flush(t)
	if _, err := big.conn.Write([]byte(strings.Repeat("x", maxFrame+1))); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, "the oversized frame", func(st ServerStats) bool { return st.OversizedFrames == 1 && st.ConnsOpen == 0 })
	big.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := big.conn.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("connection still open after an oversized frame: %v", err)
	}
	if h, ok := srv.History("big-frame"); !ok || len(h.FailedRuns()) != 1 {
		t.Fatal("run completed before the oversized frame was lost")
	}

	// A straggler is dropped and the connection lives; a line that is
	// not a message ends it.
	mal := dialRaw(t, srv, "mal")
	for _, tg := range []float64{1, 5, 3, 7} {
		d := sampleDatapoint(tg)
		m := DatapointMessage(&d)
		mal.send(&m)
	}
	mal.flush(t)
	waitStats(t, srv, "the straggler", func(st ServerStats) bool { return st.Stragglers == 1 && st.Datapoints == 4 && st.ConnsOpen == 1 })
	if _, err := mal.w.WriteString("{\"type\":\"datapoint\",\"tgen\":8,\"features\":[1,2]}\n"); err != nil {
		t.Fatal(err)
	}
	mal.flush(t)
	st := waitStats(t, srv, "the invalid line", func(st ServerStats) bool { return st.DecodeErrors == 1 && st.ConnsOpen == 0 })

	want := ServerStats{ConnsTotal: 3, Datapoints: 4, Fails: 1, Stragglers: 1, BadHello: 1, DecodeErrors: 1, OversizedFrames: 1}
	if st != want {
		t.Fatalf("stats %s\nwant  %s", st, want)
	}
}

// TestServerSharedClientID: two connections under one client id write
// one record. Run under -race.
func TestServerSharedClientID(t *testing.T) {
	var (
		sinkMu            sync.Mutex
		sinkRuns, sinkDps int64
	)
	srv, err := NewServer("127.0.0.1:0", WithRunSink(func(id string, run trace.Run) {
		sinkMu.Lock()
		sinkRuns++
		sinkDps += int64(len(run.Datapoints))
		sinkMu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const conns, runsEach, runLen = 2, 20, 50
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cli, err := Dial(srv.Addr(), "twin")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cli.Close()
			for r := 0; r < runsEach; r++ {
				for i := 0; i < runLen; i++ {
					d := sampleDatapoint(float64(i))
					if err := cli.SendDatapoint(&d); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cli.SendFail(runLen); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			if h, ok := srv.History("twin"); ok {
				if err := h.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
			srv.Clients()
		}
	}()
	wg.Wait()
	st := waitStats(t, srv, "both connections drained", func(st ServerStats) bool {
		return st.Fails == conns*runsEach && st.ConnsOpen == 0
	})
	close(stopReads)
	<-readsDone
	if st.Datapoints+st.Stragglers != conns*runsEach*runLen {
		t.Fatalf("%d datapoints sent: %s", conns*runsEach*runLen, st)
	}
	h, _ := srv.History("twin")
	if got := int64(h.TotalDatapoints()); got != st.Datapoints || len(h.Runs) != conns*runsEach {
		t.Fatalf("history holds %d datapoints in %d runs: %s", got, len(h.Runs), st)
	}
	sinkMu.Lock()
	defer sinkMu.Unlock()
	if sinkRuns != conns*runsEach || sinkDps != st.Datapoints {
		t.Fatalf("sink saw %d runs / %d datapoints, want %d / %d", sinkRuns, sinkDps, conns*runsEach, st.Datapoints)
	}
	if clients := srv.Clients(); len(clients) != 1 {
		t.Fatalf("clients = %v", clients)
	}
}

// FuzzReadMessage: whatever bytes a connection carries, reading them as
// messages terminates without a panic, accepts only valid messages that
// survive re-encoding, and holds every frame to the reader's buffer.
func FuzzReadMessage(f *testing.F) {
	d := sampleDatapoint(1.5)
	var wire strings.Builder
	w := bufio.NewWriter(&wire)
	for _, m := range []Message{
		{Type: TypeHello, ClientID: "vm-1"},
		DatapointMessage(&d),
		{Type: TypeFail, Tgen: 4.5},
		{Type: TypeBye},
	} {
		if err := writeMessage(w, &m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(wire.String())
	f.Add("")
	f.Add("{not json}\n")
	f.Add("this is not json\n")
	f.Add(`{"type":"bogus"}` + "\n")
	f.Add(`{"type":"hello"}` + "\n")
	f.Add(`{"type":"datapoint","features":[1,2]}` + "\n")
	f.Add(`{"type":"fail","tgen":-2}` + "\n")
	f.Add(`{"type":"bye"}`)
	f.Add(strings.Repeat("x", 300))

	const frame = 256 // small, so that the fuzzer finds the limit
	f.Fuzz(func(t *testing.T, in string) {
		r := bufio.NewReaderSize(strings.NewReader(in), frame)
		for n := 0; ; n++ {
			if n > len(in) {
				t.Fatal("more messages than bytes")
			}
			m, err := readMessage(r)
			if err != nil {
				if err == errFrameTooLong && !longLine(in, frame) {
					t.Fatal("frame limit hit without a long line")
				}
				return
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("accepted an invalid message: %v", err)
			}
			line := encode(t, m)
			if len(line) > frame {
				continue
			}
			back, err := readMessage(bufio.NewReaderSize(strings.NewReader(line), frame))
			if err != nil {
				t.Fatalf("rejected its own encoding %q: %v", line, err)
			}
			if again := encode(t, back); again != line {
				t.Fatalf("round trip changed the message: %q then %q", line, again)
			}
		}
	})
}

func encode(t *testing.T, m *Message) string {
	var buf strings.Builder
	if err := writeMessage(bufio.NewWriter(&buf), m); err != nil {
		t.Fatalf("cannot encode an accepted message: %v", err)
	}
	return buf.String()
}

// longLine reports whether in holds a run of limit bytes with no
// newline among them.
func longLine(in string, limit int) bool {
	for _, line := range strings.SplitAfter(in, "\n") {
		if len(line) > limit || (len(line) == limit && !strings.HasSuffix(line, "\n")) {
			return true
		}
	}
	return false
}
