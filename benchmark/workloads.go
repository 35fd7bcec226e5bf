package main

import "repro/internal/aggregate"

// Everything in this file is frozen: the rates, counts and seeds define
// the workloads, and a later change is measured against numbers taken
// with exactly these. README.md records the saturation numbers the
// paced rates were calibrated from (40 % of saturation on the 2-core
// box the baseline was taken on).

const (
	// trainSeed and trainSec fix the tpcw campaign every deployment is
	// trained from. The model's shape (support rows, selected columns)
	// sets the cost of every prediction, so it must not move with
	// -seed; -seed drives what the fleet sends instead.
	trainSeed = 2015
	trainSec  = 44_000
	// selectionLambda is the Lasso λ whose surviving columns form the
	// reduced family (6 of the 30 aggregated columns on this campaign).
	selectionLambda = 1e5

	// replaySec is the length of the seed-derived campaign whose failed
	// runs the clients replay.
	replaySec = 150_000

	// generators is the number of load-generating goroutines and, on
	// the wire, of FMC connections.
	generators = 2

	// pacedShare of -seconds goes to the open-loop phase, the rest to
	// the closed-loop saturation phase.
	pacedShare = 0.6
	// maxInFlight bounds the completed windows a closed-loop generator
	// lets wait for their estimate before it stops pushing: Session.Push
	// never blocks, so without it the pending queues grow without limit.
	maxInFlight = 4096

	// setupReps is how often a serving workload's set-up (about 70 ms)
	// is repeated, retrainSetupReps how often retrain-publish's (about
	// half a second); setup_s, pipeline_run_s and, on the serving
	// workloads, retrain_to_serve_ms are medians over the repetitions.
	setupReps        = 25
	retrainSetupReps = 5

	fleetSessions = 2000
	// staggerDatapoints spreads the sessions' window phases: each
	// session is advanced by up to this many datapoints (less than one
	// window's worth) before the clock starts.
	staggerDatapoints = 16

	// fleet-churn: 40 hot sessions, all on shard 0, pushed hotPushes
	// times per round so that they carry one third of the datapoints;
	// one session closed and one started every churnEvery datapoints
	// (100 per second at the paced rate) and one Deploy every
	// deployEvery datapoints (every 250 ms at the paced rate).
	hotSessions = 40
	hotPushes   = 25

	// retrain-publish: the history campaign is frozen like the training
	// campaign; the cold Pipeline.Run sees its first coldRuns failed runs
	// and the window slides at that size.
	retrainSeed = 7_002_018
	retrainSec  = 200_000
	// retrainReplaySec is the length of the seed-derived campaign whose
	// failed runs stream through retrain-publish's node between cycles.
	retrainReplaySec = 60_000
	// rssCycle is the cycle after which retrain-publish reads rss_mb (a
	// 20 s run makes about 115); a phase that ends sooner reads it last.
	rssCycle = 80
	coldRuns = 40
)

// Paced rates in datapoints per second, frozen. See README.md.
const (
	wireRate  = 80_000
	fleetRate = 1_200_000
	churnRate = 1_200_000

	churnEvery  = churnRate / 100
	deployEvery = churnRate / 4
)

// aggregation is the paper's configuration: 30 s windows, slopes and
// the inter-generation time.
func aggregation() aggregate.Config { return aggregate.DefaultConfig() }

type workload struct {
	name string
	why  string
	run  func(*runConfig) (*result, error)
}

var workloads = []workload{
	{"wire-ingest", "2 FMC clients over loopback TCP into monitor.Server and serve: the only path real datapoints take; JSON, syscalls and Server.mu dominate, serve sees batches of 1", runWire},
	{"fleet-serve", "2000 in-process sessions at uniform rates: aggregate, serve dispatch and PredictBatch do everything, monitor nothing; a serving or kernel change must show here", runFleetServe},
	{"fleet-churn", "same layers with writes beside reads: 40 hot sessions on one shard, session churn, EndRun, Deploy every 250 ms alternating two model kinds; guards what fleet-serve gains", runFleetChurn},
	{"retrain-publish", "the training half: CSV history, cold Pipeline.Run, then per new run Update, save, publish and refresh over loopback HTTP until the new model serves", runRetrain},
}
