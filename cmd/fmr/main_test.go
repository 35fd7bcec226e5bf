package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/registry"
)

// TestStalledClientIsCutOff pins the server's deadlines: a client that
// sends complete PUT headers and then never sends the body it announced
// gets its connection ended by ReadTimeout rather than parking a handler
// goroutine for good.
func TestStalledClientIsCutOff(t *testing.T) {
	reg := registry.New()
	srv := newServer("127.0.0.1:0", reg)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
		srv.WriteTimeout != writeTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("newServer left a deadline unset: %+v", srv)
	}
	for _, d := range []time.Duration{readHeaderTimeout, readTimeout, writeTimeout, idleTimeout} {
		if d <= 0 {
			t.Fatalf("deadline constant %v is not positive", d)
		}
	}
	// The constant is half a minute; the mechanism is observed at 200 ms.
	srv.ReadTimeout = 200 * time.Millisecond

	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PUT /v1/model HTTP/1.1\r\nHost: fmr\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"format\":")
	// From here the client sends nothing. Whatever the server answers,
	// the stream must end well inside the test's own patience.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			t.Fatalf("a body that never arrived was accepted: %s", resp.Status)
		}
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server still holding the stalled connection after %v", time.Since(start))
	}
	if v := reg.Version(); v != 0 {
		t.Fatalf("registry at version %d after a stalled publish", v)
	}
}
