// Command fms runs the Feature Monitor Server (paper §III-E): it accepts
// FMC connections over TCP, assembles each client's datapoint stream into
// a data history, and keeps one CSV per client: a run is appended to
// history-<id>.csv when its fail event closes it, the unfinished runs on
// shutdown (SIGINT/SIGTERM) or after -duration. Memory stays flat
// however long it runs; a single run longer than the server's per-client
// window (16384 datapoints) loses its oldest datapoints, and the
// counters printed at exit say how many.
//
// With -serve-model, the FMS also serves predictions: every received
// datapoint feeds the sender's session in a prediction service, RTTF
// estimates stream to stdout, and predictions below -alert-below are
// flagged — the paper's deployment loop (monitor → aggregate → predict
// → act) in one process.
//
// With -registry, the served model comes from a remote model registry
// (cmd/fmr) instead of a local file: the service polls with conditional
// GETs on the -refresh ticker, persists the last-good envelope to
// -model-cache, heartbeats its health to the registry, and — when the
// registry is unreachable — keeps serving the last-good model, flagged
// stale, instead of dropping predictions.
//
// With -supervise, an autonomic overload supervisor watches the
// serving queue: sustained depth past -overload-high tightens the shed
// policy to the -shed-floor priority floor, a drained queue relaxes it
// back, and every decision — including suppressed ones — is logged to
// stderr.
//
// Usage:
//
//	fms -listen :7070 -outdir histories/
//	fms -listen :7070 -serve-model best.model -alert-below 60
//	fms -listen :7070 -registry http://10.0.0.9:7071 -model-cache last.model
//	fms -listen :7070 -serve-model best.model -supervise -overload-high 64
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	f2pm "repro"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7070", "TCP listen address")
		outdir     = flag.String("outdir", ".", "directory for per-client history CSVs")
		duration   = flag.Duration("duration", 0, "stop after this long (0 = until SIGINT/SIGTERM)")
		servePath  = flag.String("serve-model", "", "serve live RTTF predictions with this model file")
		alertBelow = flag.Float64("alert-below", 0, "flag predictions below this many seconds (0 disables)")
		window     = flag.Float64("window", 30, "aggregation window for models saved without metadata")
		regURL     = flag.String("registry", "", "serve predictions with models pulled from this registry URL (cmd/fmr)")
		refresh    = flag.Duration("refresh", 10*time.Second, "registry poll interval (with -registry)")
		cacheFile  = flag.String("model-cache", "", "persist the last-good registry envelope here (survives restarts)")
		node       = flag.String("node", "", "node id reported in registry heartbeats (default hostname)")

		supervise     = flag.Bool("supervise", false, "run the autonomic overload supervisor over the serving queue (with -serve-model or -registry)")
		superviseTick = flag.Duration("supervise-every", 5*time.Second, "supervisor sampling interval (with -supervise)")
		overloadHigh  = flag.Float64("overload-high", 48, "queue depth that arms the overload shed tightening (with -supervise)")
		shedFloor     = flag.Int("shed-floor", 1, "priority floor installed while overloaded: windows below it are shed (with -supervise)")
	)
	flag.Parse()
	if *servePath != "" && *regURL != "" {
		fatal(fmt.Errorf("-serve-model and -registry are mutually exclusive"))
	}
	if *supervise && *servePath == "" && *regURL == "" {
		fatal(fmt.Errorf("-supervise needs a prediction service (-serve-model or -registry)"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	var (
		svc  *f2pm.PredictionService
		opts []f2pm.MonitorServerOption
	)
	histories := newHistoryFiles(*outdir)
	opts = append(opts, f2pm.WithMonitorContext(ctx), f2pm.WithMonitorRunSink(histories.sink))
	serveOpts := []f2pm.ServeOption{
		f2pm.WithEstimateFunc(func(e f2pm.Estimate) {
			fmt.Printf("client=%s t=%.1fs predicted_rttf=%.1fs model=%s/v%d\n",
				e.SessionID, e.Tgen, e.RTTF, e.ModelName, e.ModelVersion)
		}),
		f2pm.WithAlertFunc(*alertBelow, func(a f2pm.Alert) {
			fmt.Fprintf(os.Stderr, "fms: ALERT client=%s RTTF %.1fs below %.1fs\n",
				a.SessionID, a.RTTF, a.Threshold)
		}),
	}
	switch {
	case *servePath != "":
		mf, err := os.Open(*servePath)
		if err != nil {
			fatal(err)
		}
		dep, err := f2pm.LoadDeployment(mf)
		mf.Close()
		if err != nil {
			fatal(err)
		}
		if dep.Aggregation.Validate() != nil {
			cfg := f2pm.DefaultAggregationConfig()
			cfg.WindowSec = *window
			dep.Aggregation = cfg
		}
		// The service deliberately does NOT share the signal context:
		// it must outlive the monitor server during the ordered drain
		// below, or connection handlers still delivering buffered
		// datapoints would race its self-shutdown and lose windows.
		svc, err = f2pm.NewPredictionService(context.Background(),
			append(serveOpts, f2pm.WithDeployment(dep))...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fms: serving %s model predictions\n", dep.Name)
		opts = append(opts, f2pm.WithMonitorStream(svc))
	case *regURL != "":
		// Jittered backoff keeps a fleet that lost the same registry
		// from probing it in lockstep.
		src := f2pm.NewHTTPModelSource(*regURL, f2pm.HTTPSourceConfig{
			CacheFile: *cacheFile,
			RNG:       f2pm.NewRandomSource(uint64(time.Now().UnixNano())),
		})
		var err error
		svc, err = f2pm.NewPredictionService(context.Background(),
			append(serveOpts,
				f2pm.WithModelSource(src),
				f2pm.WithRefreshInterval(*refresh))...)
		if err != nil {
			fatal(fmt.Errorf("registry %s: %w", *regURL, err))
		}
		st := src.SourceStatus()
		if st.Stale {
			fmt.Fprintf(os.Stderr, "fms: registry unreachable (%s); serving last-good cached model\n", st.LastError)
		} else {
			fmt.Fprintf(os.Stderr, "fms: serving model from registry %s (etag %s)\n", *regURL, st.ETag)
		}
		opts = append(opts, f2pm.WithMonitorStream(svc))
		go heartbeatLoop(ctx, *regURL, nodeID(*node), src, svc, *refresh)
	}

	var stopSupervisor func()
	if *supervise && svc != nil {
		policies := []f2pm.SupervisorPolicy{&f2pm.OverloadPolicy{
			HighDepth:  *overloadHigh,
			TightDepth: int(*overloadHigh) / 2,
			TightFloor: *shedFloor,
			RelaxDepth: int(*overloadHigh) * 4,
			RelaxFloor: 0,
		}}
		actuators := f2pm.SupervisorActuators{
			Reshard: func(depth, floor int, reason string) error {
				return svc.SetShedPolicy(f2pm.ShedPolicy{MaxQueueDepth: depth, MinPriority: floor})
			},
		}
		sup, err := f2pm.NewSupervisor(f2pm.SupervisorConfig{
			Policies:        policies,
			Actuators:       actuators,
			DefaultCooldown: 4 * *superviseTick,
			OnDecision: func(d f2pm.SupervisorDecision) {
				fmt.Fprintf(os.Stderr, "fms: decision %s\n", d)
			},
		})
		if err != nil {
			fatal(err)
		}
		stopSupervisor = f2pm.SuperviseService(sup, svc, *superviseTick, ctx.Done())
		fmt.Fprintf(os.Stderr, "fms: overload supervisor armed (high watermark %g, floor %d, every %s)\n",
			*overloadHigh, *shedFloor, *superviseTick)
	}

	srv, err := f2pm.NewMonitorServer(*listen, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fms: listening on %s\n", srv.Addr())

	<-ctx.Done()
	// Drain in dependency order: the server stops feeding first, then
	// the service finishes its queued predictions, then the unfinished
	// runs join the closed ones already in the history files — no
	// datapoint received before shutdown is lost.
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fms: close:", err)
	}
	if stopSupervisor != nil {
		stopSupervisor()
	}
	if svc != nil {
		svc.Close()
		st := svc.Stats()
		fmt.Fprintf(os.Stderr, "fms: served %d predictions (%d alerts) across %d sessions\n",
			st.Predictions, st.Alerts, st.Sessions)
	}

	fmt.Fprintf(os.Stderr, "fms: monitor %s\n", srv.Stats())
	histories.finish(srv)
}

// heartbeatLoop reports this node's health to the registry every poll
// interval: which envelope it serves, its counters, and whether it is
// serving stale. Heartbeat failures and the node's own staleness are
// logged once per transition — an operator tailing the log sees when
// the node fell back to its last-good model and when it reconverged
// (with how long it had been serving stale), not a line per poll.
func heartbeatLoop(ctx context.Context, regURL, node string, src *f2pm.HTTPModelSource, svc *f2pm.PredictionService, every time.Duration) {
	client := f2pm.NewRegistryClient(regURL, nil)
	t := time.NewTicker(every)
	defer t.Stop()
	down := false
	stale := false
	var staleAge time.Duration // last observed age: Stats zeroes it once fresh
	for {
		st := svc.Stats()
		switch {
		case st.RegistryStale && !stale:
			fmt.Fprintf(os.Stderr, "fms: registry stale (%s); serving last-good model v%d\n",
				st.RegistryLastError, st.ModelVersion)
		case !st.RegistryStale && stale:
			fmt.Fprintf(os.Stderr, "fms: registry fresh again after ~%s stale; serving model v%d\n",
				(staleAge + every).Round(time.Second), st.ModelVersion)
		}
		stale = st.RegistryStale
		if st.RegistryStale {
			staleAge = st.RegistryStaleAge
		}
		hb := f2pm.RegistryHeartbeat{
			Node:         node,
			ETag:         src.ETag(),
			ModelVersion: st.ModelVersion,
			Sessions:     st.Sessions,
			Predictions:  st.Predictions,
			Stale:        st.RegistryStale,
			StaleAgeSec:  st.RegistryStaleAge.Seconds(),
			LastError:    st.RegistryLastError,
		}
		hbCtx, cancel := context.WithTimeout(ctx, every)
		_, err := client.SendHeartbeat(hbCtx, hb)
		cancel()
		if err != nil && !down {
			fmt.Fprintf(os.Stderr, "fms: heartbeat: %v\n", err)
		}
		down = err != nil
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// nodeID resolves the heartbeat node id: the -node flag, else the
// hostname, else the pid.
func nodeID(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return fmt.Sprintf("fms-%d", os.Getpid())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fms:", err)
	os.Exit(1)
}
