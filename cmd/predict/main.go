// Command predict deploys a trained F2PM model: it loads a model saved
// by `f2pm -save-model` (or any SaveDeployment envelope), feeds a
// stream of datapoints through a prediction-service session with the
// same windowing the training used, and emits Remaining-Time-To-Failure
// estimates. When the prediction drops below -act-below, it runs the
// given command — the paper's proactive rejuvenation action (§I).
//
// Models saved with deployment metadata (format v2 and later) carry
// their feature subset and aggregation config, so Lasso-selected models
// deploy correctly: live rows are projected through the stored subset. Older
// all-params envelopes still load; their window size comes from
// -window.
//
// Two input modes:
//
//	predict -model best.model -replay history.csv   # replay a CSV history
//	predict -model best.model -interval 1.5s        # live from /proc
//
// SIGINT/SIGTERM shut down cleanly: the final partial window is still
// predicted before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	f2pm "repro"
)

func main() {
	var (
		modelPath = flag.String("model", "best.model", "model file from f2pm -save-model")
		replay    = flag.String("replay", "", "replay datapoints from this history CSV instead of sampling /proc")
		interval  = flag.Duration("interval", 1500*time.Millisecond, "live sampling interval")
		procRoot  = flag.String("proc", "/proc", "procfs mount point (live mode)")
		window    = flag.Float64("window", 30, "aggregation window in seconds (only for models saved without metadata)")
		actBelow  = flag.Float64("act-below", 0, "run -action when predicted RTTF falls below this many seconds (0 disables)")
		action    = flag.String("action", "", "command to run on low-RTTF predictions (e.g. a rejuvenation script)")
		maxRows   = flag.Int("max-predictions", 0, "stop after this many predictions (0 = unlimited; useful for testing)")
	)
	flag.Parse()

	mf, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	dep, err := f2pm.LoadDeployment(mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}
	if dep.Aggregation.Validate() != nil {
		// Pre-metadata envelope: the training windowing is not in the
		// file, so take it from the flags (all-params layout).
		cfg := f2pm.DefaultAggregationConfig()
		cfg.WindowSec = *window
		dep.Aggregation = cfg
	}
	if len(dep.Features) > 0 {
		fmt.Fprintf(os.Stderr, "predict: loaded %s model from %s (%d selected features)\n",
			dep.Name, *modelPath, len(dep.Features))
	} else {
		fmt.Fprintf(os.Stderr, "predict: loaded %s model from %s (all parameters)\n", dep.Name, *modelPath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var sess *f2pm.ServeSession
	var emitted atomic.Int64
	// The service runs on its own context so the shutdown path below
	// controls the drain order explicitly: flush the final partial
	// window first, then close — a signal must not race the service
	// into closing before that flush lands.
	svc, err := f2pm.NewPredictionService(context.Background(),
		f2pm.WithDeployment(dep),
		f2pm.WithEstimateFunc(func(e f2pm.Estimate) {
			n := emitted.Add(1)
			if *maxRows > 0 && n > int64(*maxRows) {
				return // drained windows beyond the cap stay silent
			}
			fmt.Printf("t=%.1fs predicted_rttf=%.1fs\n", e.Tgen, e.RTTF)
			if *maxRows > 0 && n == int64(*maxRows) {
				cancel()
			}
		}),
		f2pm.WithAlertFunc(*actBelow, func(a f2pm.Alert) {
			if *action == "" {
				fmt.Fprintf(os.Stderr, "predict: RTTF %.1fs below %.1fs\n", a.RTTF, a.Threshold)
				return
			}
			fmt.Fprintf(os.Stderr, "predict: RTTF %.1fs below %.1fs — running action\n", a.RTTF, a.Threshold)
			cmd := exec.Command("/bin/sh", "-c", *action)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "predict: action failed:", err)
			}
			sess.Reset() // the action presumably restarted the system
		}),
	)
	if err != nil {
		fatal(err)
	}
	defer svc.Close()
	if sess, err = svc.StartSession("local"); err != nil {
		fatal(err)
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		h, err := f2pm.ReadHistoryCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		for _, run := range h.Runs {
			for _, d := range run.Datapoints {
				if ctx.Err() != nil {
					// Graceful stop mid-replay: the partial window
					// buffered in the aggregator still gets predicted.
					sess.Flush()
					svc.Flush()
					return
				}
				if err := sess.Push(d); err != nil {
					return
				}
			}
			sess.EndRun() // predict the final partial window, then reset
			svc.Flush()   // keep replay output deterministic
		}
		svc.Flush()
		return
	}

	// Live mode: sample /proc until cancelled.
	src := f2pm.NewProcSource(*procRoot)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: the current partial window still gets
			// its estimate before the service drains.
			sess.Flush()
			svc.Close()
			return
		case <-ticker.C:
			d, err := src.Sample()
			if err != nil {
				fmt.Fprintln(os.Stderr, "predict: sample:", err)
				continue
			}
			if err := sess.Push(d); err != nil {
				return
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
