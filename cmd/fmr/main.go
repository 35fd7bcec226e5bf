// Command fmr runs the Failure-prediction Model Registry — the control
// plane between one trainer and N serving nodes. The trainer publishes
// deployment envelopes with PUT /v1/model (cmd/f2pm -publish); serving
// nodes (cmd/fms -registry) poll with conditional GETs and heartbeat
// their health; GET /v1/health shows the fleet: which nodes are alive,
// which have converged to the current model, which are serving stale.
//
// A registry restart must not cost the fleet its model, so -persist
// writes every accepted publish to disk (atomically) and reloads it on
// startup. Serving nodes additionally keep their own last-good cache —
// the registry is a convergence point, not a single point of failure.
//
// Usage:
//
//	fmr -listen :7071 -persist registry.model
//	fmr -listen :7071 -model best.model     # seed from a trained model
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/registry"
)

// Connection deadlines. The registry speaks to one trainer and a fleet
// of polling nodes on a control network; nothing it serves takes long,
// so a peer that stalls is cut off instead of holding a connection and
// its goroutine forever. They are constants, not flags: no deployment
// has needed other values.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // the whole request, so a PUT body that stops arriving ends here
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute // keep-alive between a node's polls
)

// newServer is the registry's HTTP server with its deadlines set.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7071", "HTTP listen address")
		persist  = flag.String("persist", "", "persist published envelopes to this file and reload on startup")
		seed     = flag.String("model", "", "seed the registry with this envelope file at startup")
		liveness = flag.Duration("liveness", 30*time.Second, "heartbeat age beyond which a node counts as dead")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []registry.Option{registry.WithLivenessWindow(*liveness)}
	if *persist != "" {
		opts = append(opts, registry.WithPublishHook(func(p registry.Published) {
			if err := writeAtomic(*persist, p.Data); err != nil {
				fmt.Fprintln(os.Stderr, "fmr: persist:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "fmr: published v%d kind=%s etag=%s (persisted)\n",
				p.Version, p.Kind, p.ETag)
		}))
	} else {
		opts = append(opts, registry.WithPublishHook(func(p registry.Published) {
			fmt.Fprintf(os.Stderr, "fmr: published v%d kind=%s etag=%s\n",
				p.Version, p.Kind, p.ETag)
		}))
	}
	reg := registry.New(opts...)

	// Seed order: an explicit -model wins; otherwise restore the last
	// persisted publish so a restarted registry keeps serving.
	seedFrom := *seed
	if seedFrom == "" && *persist != "" {
		if _, err := os.Stat(*persist); err == nil {
			seedFrom = *persist
		}
	}
	if seedFrom != "" {
		data, err := os.ReadFile(seedFrom)
		if err != nil {
			fatal(err)
		}
		res, err := reg.SetModel(data)
		if err != nil {
			fatal(fmt.Errorf("seeding from %s: %w", seedFrom, err))
		}
		fmt.Fprintf(os.Stderr, "fmr: seeded v%d etag=%s from %s\n", res.Version, res.ETag, seedFrom)
	}

	srv := newServer(*listen, reg)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fmr: registry listening on %s\n", *listen)

	select {
	case <-ctx.Done():
	case err := <-errc:
		fatal(err)
	}
	// Graceful drain: stop accepting, let in-flight publishes and polls
	// finish, then report the final fleet state.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fmr: shutdown:", err)
	}
	h := reg.Health()
	fmt.Fprintf(os.Stderr, "fmr: stopped at model v%d; %d/%d nodes alive, %d stale\n",
		h.ModelVersion, h.AliveNodes, len(h.Nodes), h.StaleNodes)
}

// writeAtomic writes data via a temp file + rename so a crash mid-write
// never leaves a torn envelope where the next startup will read it.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".fmr-persist-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmr:", err)
	os.Exit(1)
}
