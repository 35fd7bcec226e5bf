package monitor

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func sampleDatapoint(tgen float64) trace.Datapoint {
	var d trace.Datapoint
	d.Tgen = tgen
	d.Features[trace.MemFree] = 1e6
	d.Features[trace.CPUIdle] = 90
	d.Features[trace.NumThreads] = 200
	return d
}

// readMessage reads one message the way a connection goroutine does:
// a bounded frame, then the decoder.
func readMessage(r *bufio.Reader) (*Message, error) {
	line, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(line)
}

func TestMessageRoundTrip(t *testing.T) {
	d := sampleDatapoint(1.5)
	m := DatapointMessage(&d)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMessage(w, &m); err != nil {
		t.Fatal(err)
	}
	got, err := readMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := got.Datapoint()
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Fatalf("round trip mismatch: %+v vs %+v", d2, d)
	}
}

func TestMessageValidate(t *testing.T) {
	bad := []Message{
		{Type: "bogus"},
		{Type: TypeHello},
		{Type: TypeDatapoint, Features: []float64{1, 2}},
		{Type: TypeDatapoint, Tgen: -1, Features: make([]float64, trace.NumFeatures)},
		{Type: TypeFail, Tgen: -2},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := (&Message{Type: TypeBye}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDatapointFromWrongType(t *testing.T) {
	m := Message{Type: TypeFail, Tgen: 1}
	if _, err := m.Datapoint(); err == nil {
		t.Fatal("fail message converted to datapoint")
	}
}

func TestReadMessageMalformed(t *testing.T) {
	if _, err := readMessage(bufio.NewReader(strings.NewReader("{not json}\n"))); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := readMessage(bufio.NewReader(strings.NewReader(""))); err != io.EOF {
		t.Fatal("empty stream should be EOF")
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), "vm-1")
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: three datapoints then a fail.
	for i := 0; i < 3; i++ {
		d := sampleDatapoint(float64(i) * 1.5)
		if err := cli.SendDatapoint(&d); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.SendFail(4.5); err != nil {
		t.Fatal(err)
	}
	// Run 2: two datapoints, left open.
	for i := 0; i < 2; i++ {
		d := sampleDatapoint(float64(i) * 1.5)
		if err := cli.SendDatapoint(&d); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	// Wait until the server has digested everything.
	deadline := time.Now().Add(5 * time.Second)
	var h *trace.History
	for time.Now().Before(deadline) {
		got, ok := srv.History("vm-1")
		// History reports the open run as a run from its first
		// datapoint: wait for run 0 closed and run 1 whole.
		if ok && len(got.Runs) == 2 && got.Runs[0].Failed && len(got.Runs[1].Datapoints) == 2 {
			h = got
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h == nil {
		t.Fatal("server never assembled 2 runs")
	}
	if !h.Runs[0].Failed || h.Runs[0].FailTime != 4.5 || len(h.Runs[0].Datapoints) != 3 {
		t.Fatalf("run 0 wrong: %+v", h.Runs[0])
	}
	if h.Runs[1].Failed || len(h.Runs[1].Datapoints) != 2 {
		t.Fatalf("run 1 wrong: failed=%v n=%d", h.Runs[1].Failed, len(h.Runs[1].Datapoints))
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	clients := srv.Clients()
	if len(clients) != 1 || clients[0] != "vm-1" {
		t.Fatalf("clients = %v", clients)
	}
	if _, ok := srv.History("ghost"); ok {
		t.Fatal("unknown client has a history")
	}
}

func TestServerMultipleClients(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, id := range []string{"a", "b"} {
		cli, err := Dial(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		d := sampleDatapoint(1)
		if err := cli.SendDatapoint(&d); err != nil {
			t.Fatal(err)
		}
		if err := cli.SendFail(2); err != nil {
			t.Fatal(err)
		}
		cli.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.Clients()) == 2 {
			ha, _ := srv.History("a")
			hb, _ := srv.History("b")
			if ha != nil && hb != nil && len(ha.Runs) == 1 && len(hb.Runs) == 1 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server did not assemble both clients")
}

func TestCollectorLoop(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "coll")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	samples := 0
	failAt := 5
	src := SourceFunc(func() (trace.Datapoint, error) {
		samples++
		d := sampleDatapoint(float64(samples))
		if samples >= failAt {
			d.Features[trace.MemFree] = 0 // trip the condition
		}
		return d, nil
	})
	failed := make(chan struct{}, 1)
	coll := &Collector{
		Client:    cli,
		Source:    src,
		Interval:  2 * time.Millisecond,
		Condition: trace.ThresholdCondition(trace.MemFree, 1, -1),
		OnFail: func(d *trace.Datapoint) {
			select {
			case failed <- struct{}{}:
			default:
			}
		},
	}
	if err := coll.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("collector never hit the fail condition")
	}
	coll.Stop()
	coll.Stop() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h, ok := srv.History("coll")
		if ok && len(h.FailedRuns()) >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server did not record the failed run")
}

func TestCollectorStartValidation(t *testing.T) {
	c := &Collector{}
	if err := c.Start(context.Background()); err == nil {
		t.Fatal("empty collector started")
	}
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	c = &Collector{Client: cli, Source: SourceFunc(func() (trace.Datapoint, error) { return sampleDatapoint(1), nil })}
	if err := c.Start(context.Background()); err == nil {
		t.Fatal("zero interval accepted")
	}
}

const meminfoFixture = `MemTotal:        2048000 kB
MemFree:          512000 kB
Buffers:           64000 kB
Cached:           384000 kB
Shmem:             48000 kB
SwapTotal:       1024000 kB
SwapFree:         896000 kB
`

const statFixtureA = `cpu  1000 50 300 8000 200 10 20 30
cpu0 500 25 150 4000 100 5 10 15
`

const statFixtureB = `cpu  1400 70 420 8600 360 20 40 50
cpu0 700 35 210 4300 180 10 20 25
`

const loadavgFixture = "0.52 0.58 0.59 3/1234 5678\n"

func writeProcFixture(t *testing.T, dir, stat string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "meminfo"), []byte(meminfoFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(stat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "loadavg"), []byte(loadavgFixture), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestProcSourceFixtures(t *testing.T) {
	dir := t.TempDir()
	writeProcFixture(t, dir, statFixtureA)
	src := NewProcSource(dir)
	now := time.Now()
	src.start = now
	src.now = func() time.Time { return now.Add(3 * time.Second) }

	d1, err := src.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Features[trace.MemFree] != 512000 {
		t.Fatalf("MemFree = %v", d1.Features[trace.MemFree])
	}
	if got := d1.Features[trace.MemUsed]; got != 2048000-512000-64000-384000 {
		t.Fatalf("MemUsed = %v", got)
	}
	if d1.Features[trace.SwapUsed] != 128000 || d1.Features[trace.SwapFree] != 896000 {
		t.Fatal("swap fields wrong")
	}
	if d1.Features[trace.MemShared] != 48000 {
		t.Fatal("Shmem wrong")
	}
	if d1.Features[trace.NumThreads] != 1234 {
		t.Fatalf("threads = %v", d1.Features[trace.NumThreads])
	}
	// First sample has no CPU window: idle 100.
	if d1.Features[trace.CPUIdle] != 100 {
		t.Fatalf("first-sample idle = %v", d1.Features[trace.CPUIdle])
	}
	if d1.Tgen != 3 {
		t.Fatalf("Tgen = %v", d1.Tgen)
	}

	// Second sample: jiffy deltas → user 400, nice 20, sys 120+10+20=150,
	// idle 600, iowait 160, steal 20; total delta = 1380... compute:
	writeProcFixture(t, dir, statFixtureB)
	d2, err := src.Sample()
	if err != nil {
		t.Fatal(err)
	}
	totalDelta := (1400 - 1000) + (70 - 50) + (420 - 300) + (8600 - 8000) + (360 - 200) + (20 - 10) + (40 - 20) + (50 - 30)
	wantUser := 100 * 400 / float64(totalDelta)
	if math.Abs(d2.Features[trace.CPUUser]-wantUser) > 1e-9 {
		t.Fatalf("CPUUser = %v, want %v", d2.Features[trace.CPUUser], wantUser)
	}
	wantSys := 100 * float64(120+10+20) / float64(totalDelta)
	if math.Abs(d2.Features[trace.CPUSystem]-wantSys) > 1e-9 {
		t.Fatalf("CPUSystem = %v, want %v", d2.Features[trace.CPUSystem], wantSys)
	}
	wantSteal := 100 * 20 / float64(totalDelta)
	if math.Abs(d2.Features[trace.CPUSteal]-wantSteal) > 1e-9 {
		t.Fatalf("CPUSteal = %v", d2.Features[trace.CPUSteal])
	}
	// Shares sum to 100.
	var sum float64
	for _, f := range []trace.FeatureIndex{trace.CPUUser, trace.CPUNice, trace.CPUSystem, trace.CPUIOWait, trace.CPUSteal, trace.CPUIdle} {
		sum += d2.Features[f]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("CPU shares sum to %v", sum)
	}
}

func TestProcSourceErrors(t *testing.T) {
	// Missing directory.
	src := NewProcSource(filepath.Join(t.TempDir(), "nope"))
	if _, err := src.Sample(); err == nil {
		t.Fatal("missing procfs accepted")
	}
	// Malformed meminfo.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meminfo"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(statFixtureA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "loadavg"), []byte(loadavgFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	src = NewProcSource(dir)
	if _, err := src.Sample(); err == nil {
		t.Fatal("malformed meminfo accepted")
	}
}

func TestParseStatCPUErrors(t *testing.T) {
	if _, err := parseStatCPU("intr 12345\n"); err == nil {
		t.Fatal("missing cpu line accepted")
	}
	if _, err := parseStatCPU("cpu  1 2\n"); err == nil {
		t.Fatal("short cpu line accepted")
	}
	if _, err := parseStatCPU("cpu  a b c d e f g h\n"); err == nil {
		t.Fatal("non-numeric cpu line accepted")
	}
}

func TestParseLoadavgErrors(t *testing.T) {
	if _, err := parseLoadavgThreads("0.1 0.2"); err == nil {
		t.Fatal("short loadavg accepted")
	}
	if _, err := parseLoadavgThreads("0.1 0.2 0.3 17 999"); err == nil {
		t.Fatal("missing slash accepted")
	}
	if _, err := parseLoadavgThreads("0.1 0.2 0.3 3/abc 999"); err == nil {
		t.Fatal("non-numeric total accepted")
	}
}

func TestProcSourceLive(t *testing.T) {
	// Best-effort smoke test on the real /proc when present.
	if _, err := os.Stat("/proc/meminfo"); err != nil {
		t.Skip("no /proc on this platform")
	}
	src := NewProcSource("")
	d, err := src.Sample()
	if err != nil {
		t.Fatalf("live /proc sample failed: %v", err)
	}
	if d.Features[trace.MemFree] <= 0 {
		t.Fatal("live MemFree not positive")
	}
}

func TestServerKeepsDataBeforeMalformedStream(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Speak the protocol by hand so we can inject garbage mid-stream.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	hello := Message{Type: TypeHello, ClientID: "mal"}
	if err := writeMessage(w, &hello); err != nil {
		t.Fatal(err)
	}
	d := sampleDatapoint(1)
	dp := DatapointMessage(&d)
	if err := writeMessage(w, &dp); err != nil {
		t.Fatal(err)
	}
	fail := Message{Type: TypeFail, Tgen: 2}
	if err := writeMessage(w, &fail); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteString("this is not json\n"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The server must keep the completed run despite the garbage.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h, ok := srv.History("mal")
		if ok && len(h.FailedRuns()) == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("completed run lost after malformed stream")
}

func TestServerIgnoresOutOfOrderDatapoints(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "ooo")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range []float64{1, 5, 3, 7} { // 3 is a straggler
		d := sampleDatapoint(tg)
		if err := cli.SendDatapoint(&d); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.SendFail(8); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h, ok := srv.History("ooo")
		// Failed: History reports the still-open run as a run too.
		if ok && len(h.Runs) == 1 && h.Runs[0].Failed {
			if got := len(h.Runs[0].Datapoints); got != 3 {
				t.Fatalf("kept %d datapoints, want 3 (straggler dropped)", got)
			}
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("run never assembled")
}

// recordingStream collects StreamHandler callbacks.
type recordingStream struct {
	mu    sync.Mutex
	dps   map[string][]trace.Datapoint
	fails map[string][]float64
}

func newRecordingStream() *recordingStream {
	return &recordingStream{dps: map[string][]trace.Datapoint{}, fails: map[string][]float64{}}
}

func (r *recordingStream) HandleDatapoint(id string, d trace.Datapoint) {
	r.mu.Lock()
	r.dps[id] = append(r.dps[id], d)
	r.mu.Unlock()
}

func (r *recordingStream) HandleFail(id string, tgen float64) {
	r.mu.Lock()
	r.fails[id] = append(r.fails[id], tgen)
	r.mu.Unlock()
}

// TestServerStreamHandler pins the live hook: every accepted datapoint
// and fail event reaches the handler in wire order, and dropped
// (out-of-order) datapoints do not.
func TestServerStreamHandler(t *testing.T) {
	rec := newRecordingStream()
	srv, err := NewServer("127.0.0.1:0", WithStream(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), "vm-s")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range []float64{0, 1.5, 3, 1 /* out of order: dropped */, 4.5} {
		d := sampleDatapoint(tg)
		if err := cli.SendDatapoint(&d); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.SendFail(4.5); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		rec.mu.Lock()
		nd, nf := len(rec.dps["vm-s"]), len(rec.fails["vm-s"])
		rec.mu.Unlock()
		if nd == 4 && nf == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream saw %d datapoints / %d fails, want 4 / 1", nd, nf)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	want := []float64{0, 1.5, 3, 4.5}
	for i, d := range rec.dps["vm-s"] {
		if d.Tgen != want[i] {
			t.Fatalf("datapoint %d has Tgen %v, want %v (wire order broken)", i, d.Tgen, want[i])
		}
	}
	if rec.fails["vm-s"][0] != 4.5 {
		t.Fatalf("fail tgen %v", rec.fails["vm-s"][0])
	}
}

// TestServerContextClose pins WithServerContext: cancelling the context
// closes the server — even with a client connection still open — and
// new dials are refused.
func TestServerContextClose(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := NewServer("127.0.0.1:0", WithServerContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), "idle")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	d := sampleDatapoint(1)
	if err := cli.SendDatapoint(&d); err != nil {
		t.Fatal(err)
	}
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := Dial(srv.Addr(), "late"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server still accepting after context cancellation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Close after context shutdown is a clean no-op.
	if err := srv.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
		t.Fatalf("close after cancel: %v", err)
	}
}
