package monitor

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// StreamHandler receives the live FMC event stream as the server
// assembles it: one call per accepted datapoint and per fail event.
// Calls for one client are made sequentially from that client's
// connection goroutine (per-client order is the wire order); calls for
// different clients are concurrent. Handlers must not call back into
// the server's Close. This is the hook that feeds a serving-side
// prediction service directly from the monitor — monitor → aggregate →
// predict → act in one process, no CSV round-trip.
type StreamHandler interface {
	// HandleDatapoint is called for every datapoint recorded into the
	// client's history.
	HandleDatapoint(clientID string, d trace.Datapoint)
	// HandleFail is called when the client reports the failure
	// condition at elapsed time tgen, closing its current run.
	HandleFail(clientID string, tgen float64)
}

// ServerOption configures an FMS.
type ServerOption func(*serverConfig)

type serverConfig struct {
	stream StreamHandler
	sink   func(clientID string, run trace.Run)
	ctx    context.Context
}

// WithStream attaches a live event handler to the server.
func WithStream(h StreamHandler) ServerOption {
	return func(c *serverConfig) { c.stream = h }
}

// WithRunSink hands every run to sink as its fail event closes it:
// exactly once, from the client's connection goroutine with no server
// lock held, in that connection's wire order and before the stream
// handler's HandleFail. The server retains only the newest 16384
// datapoints per client, so a sink that persists runs (cmd/fms appends
// them to the client's CSV) is what keeps a long-lived server's history
// complete.
// The run shares its datapoints with the server's retained copy: the
// sink must not modify them. A client id used by several connections at
// once gets concurrent sink calls.
func WithRunSink(sink func(clientID string, run trace.Run)) ServerOption {
	return func(c *serverConfig) { c.sink = sink }
}

// WithServerContext ties the server lifetime to ctx: when ctx is
// cancelled the server closes (stops accepting, drains handlers)
// exactly as an explicit Close would.
func WithServerContext(ctx context.Context) ServerOption {
	return func(c *serverConfig) { c.ctx = ctx }
}

// ServerStats counts what the server accepted and every reason it
// dropped input or a connection. Connections that ended cleanly (bye or
// end of stream between messages) are ConnsTotal minus ConnsOpen and
// the four connection-ending counters.
type ServerStats struct {
	ConnsOpen  int64 // connections being served now
	ConnsTotal int64 // connections accepted since start
	Datapoints int64 // datapoints recorded and streamed
	Fails      int64 // fail events, each closing a run
	Stragglers int64 // datapoints dropped for a Tgen behind their run's last

	// Each of these ended a connection.
	BadHello        int64 // first message was not a hello
	DecodeErrors    int64 // a line that is not a valid message
	OversizedFrames int64 // a line longer than the 64 KiB frame limit
	ReadErrors      int64 // the transport failed mid-line, or Close cut it

	RunsEvicted       int64 // closed runs dropped from memory, oldest first
	DatapointsTrimmed int64 // datapoints dropped from the head of an open run
}

// String renders the counters as one log line.
func (st ServerStats) String() string {
	return fmt.Sprintf("conns=%d/%d datapoints=%d fails=%d stragglers=%d bad_hello=%d decode_errors=%d oversized=%d read_errors=%d runs_evicted=%d datapoints_trimmed=%d",
		st.ConnsOpen, st.ConnsTotal, st.Datapoints, st.Fails, st.Stragglers,
		st.BadHello, st.DecodeErrors, st.OversizedFrames, st.ReadErrors,
		st.RunsEvicted, st.DatapointsTrimmed)
}

// serverCounters is ServerStats as the connection goroutines update it.
type serverCounters struct {
	connsOpen, connsTotal, datapoints, fails, stragglers atomic.Int64
	badHello, decodeErrors, oversizedFrames, readErrors  atomic.Int64
	runsEvicted, datapointsTrimmed                       atomic.Int64
}

// Server is the Feature Monitor Server (FMS). It accepts any number of
// FMC connections and does two jobs with each client's stream of
// datapoint/fail messages. Streaming: every accepted event goes to the
// StreamHandler and is not kept. Recording: the events are assembled
// into a per-client trace.History (a fail message closes the current
// run and opens the next one) of which the newest retainBudget
// datapoints stay in memory; every closed run is offered to WithRunSink.
type Server struct {
	listener net.Listener
	stream   StreamHandler
	sink     func(clientID string, run trace.Run)
	stop     chan struct{} // closed by Close
	stats    serverCounters

	mu      sync.Mutex // guards clients and closed, never held per datapoint
	clients map[string]*clientRecord
	closed  bool
	wg      sync.WaitGroup
}

// NewServer starts an FMS listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listening on %s: %w", addr, err)
	}
	s := &Server{
		listener: l,
		stream:   cfg.stream,
		sink:     cfg.sink,
		stop:     make(chan struct{}),
		clients:  make(map[string]*clientRecord),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.ctx != nil {
		ctx := cfg.ctx
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.stop:
			}
		}()
	}
	return s, nil
}

// Addr returns the listening address (useful with port 0).
func (s *Server) Addr() string { return s.listener.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.connsTotal.Add(1)
		s.stats.connsOpen.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.stats.connsOpen.Add(-1)
			s.handle(conn)
		}()
	}
}

// next returns the connection's next message. When there is none it
// returns nil, having counted why unless the stream simply ended.
func (s *Server) next(r *bufio.Reader) *Message {
	line, err := readFrame(r)
	switch {
	case err == io.EOF:
		return nil
	case err == errFrameTooLong:
		s.stats.oversizedFrames.Add(1)
		return nil
	case err != nil:
		s.stats.readErrors.Add(1)
		return nil
	}
	m, err := decodeMessage(line)
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return nil
	}
	return m
}

// handle consumes one client connection until EOF, error, or Close.
// Whatever the client sent before a bad line stays recorded.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	// Unblock the blocking read when the server closes, so Close never
	// waits on an idle connection.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		select {
		case <-s.stop:
			conn.Close()
		case <-stopDone:
		}
	}()
	r := bufio.NewReaderSize(conn, maxFrame)

	hello := s.next(r)
	if hello == nil {
		return
	}
	if hello.Type != TypeHello {
		s.stats.badHello.Add(1)
		return
	}
	id := hello.ClientID
	rec := s.client(id)

	for {
		m := s.next(r)
		if m == nil {
			return
		}
		switch m.Type {
		case TypeDatapoint:
			d, err := m.Datapoint()
			if err != nil {
				s.stats.decodeErrors.Add(1)
				return
			}
			if !rec.add(d, &s.stats) {
				s.stats.stragglers.Add(1)
				continue
			}
			s.stats.datapoints.Add(1)
			if s.stream != nil {
				s.stream.HandleDatapoint(id, d)
			}
		case TypeFail:
			run := rec.fail(m.Tgen, &s.stats)
			s.stats.fails.Add(1)
			if s.sink != nil {
				s.sink(id, run)
			}
			if s.stream != nil {
				s.stream.HandleFail(id, run.FailTime)
			}
		case TypeBye:
			return
		}
	}
}

// client returns the record for id, creating it on the id's first hello.
func (s *Server) client(id string) *clientRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.clients[id]
	if !ok {
		rec = &clientRecord{}
		s.clients[id] = rec
	}
	return rec
}

// retainBudget is how many datapoints the server keeps in memory per
// client, closed runs and the open run together: 2 MB at 120 B each,
// 6.8 h of the paper's 1.5 s sampling. A closed run without datapoints
// counts as one, so that fail events alone cannot grow a record.
const retainBudget = 1 << 14

// openTrim is how many datapoints an over-budget open run loses at
// once: one copy-down of the rest per openTrim arrivals.
const openTrim = retainBudget / 4

// clientRecord is one client's recorded history. Connection goroutines
// serving that client id write it (normally one), History reads it.
type clientRecord struct {
	mu       sync.Mutex
	closed   []trace.Run // closed[head:] are retained, oldest first
	head     int
	open     []trace.Datapoint // the unfinished run
	retained int               // budget units held by closed[head:] and open
}

func runCost(r *trace.Run) int {
	if n := len(r.Datapoints); n > 0 {
		return n
	}
	return 1
}

// add appends d to the open run, or reports false for a straggler: Tgen
// is monotone within a run.
func (c *clientRecord) add(d trace.Datapoint, st *serverCounters) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.open); n > 0 && d.Tgen < c.open[n-1].Tgen {
		return false
	}
	c.open = append(c.open, d)
	c.retained++
	c.shed(st)
	return true
}

// fail closes the open run at tgen, or at its last datapoint when that
// is later, and returns it.
func (c *clientRecord) fail(tgen float64, st *serverCounters) trace.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	run := trace.Run{Datapoints: c.open, Failed: true, FailTime: tgen}
	if n := len(c.open); n > 0 && tgen < c.open[n-1].Tgen {
		run.FailTime = c.open[n-1].Tgen
	}
	if len(c.open) == 0 {
		c.retained++ // runCost of a run without datapoints
	}
	c.open = nil
	c.closed = append(c.closed, run)
	c.shed(st)
	return run
}

// shed brings the record back under retainBudget: the oldest closed
// runs go first, whole; with none left the open run loses its head.
func (c *clientRecord) shed(st *serverCounters) {
	for c.retained > retainBudget && c.head < len(c.closed) {
		c.retained -= runCost(&c.closed[c.head])
		c.closed[c.head] = trace.Run{}
		c.head++
		st.runsEvicted.Add(1)
	}
	// Close the gap once it is half the slice: amortised O(1) a run.
	if c.head > 0 && 2*c.head >= len(c.closed) {
		n := copy(c.closed, c.closed[c.head:])
		clear(c.closed[n:])
		c.closed = c.closed[:n]
		c.head = 0
	}
	if c.retained > retainBudget {
		c.open = c.open[:copy(c.open, c.open[openTrim:])]
		c.retained -= openTrim
		st.datapointsTrimmed.Add(openTrim)
	}
}

// history deep-copies what the record retains; the open run comes last,
// unfailed.
func (c *clientRecord) history() *trace.History {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &trace.History{Runs: append([]trace.Run(nil), c.closed[c.head:]...)}
	if len(c.open) > 0 {
		out.Runs = append(out.Runs, trace.Run{Datapoints: append([]trace.Datapoint(nil), c.open...)})
	}
	return out
}

// History returns a deep copy of what the server retains of the named
// client's history: its newest closed runs, then any unfinished run as
// a truncated (unfailed) run. Older runs have left through WithRunSink.
func (s *Server) History(clientID string) (*trace.History, bool) {
	s.mu.Lock()
	rec, ok := s.clients[clientID]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return rec.history(), true
}

// Clients returns the ids of all clients seen so far.
func (s *Server) Clients() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.clients))
	for id := range s.clients {
		out = append(out, id)
	}
	return out
}

// Stats returns the server's counters as of now.
func (s *Server) Stats() ServerStats {
	c := &s.stats
	return ServerStats{
		ConnsOpen:         c.connsOpen.Load(),
		ConnsTotal:        c.connsTotal.Load(),
		Datapoints:        c.datapoints.Load(),
		Fails:             c.fails.Load(),
		Stragglers:        c.stragglers.Load(),
		BadHello:          c.badHello.Load(),
		DecodeErrors:      c.decodeErrors.Load(),
		OversizedFrames:   c.oversizedFrames.Load(),
		ReadErrors:        c.readErrors.Load(),
		RunsEvicted:       c.runsEvicted.Load(),
		DatapointsTrimmed: c.datapointsTrimmed.Load(),
	}
}

// Close stops accepting and waits for handler goroutines to finish.
// Every caller waits for the drain, even when racing another Close
// (e.g. the WithServerContext watcher): a returned Close means no
// handler is still delivering datapoints.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	var err error
	if !already {
		close(s.stop)
		err = s.listener.Close()
	}
	s.wg.Wait()
	return err
}
