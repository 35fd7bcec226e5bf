// Command benchmark is the repository's end-to-end benchmark: four
// workloads that drive the two halves of F2PM — wire → serve → estimate
// and retrain → publish → refresh — through their public functions with
// a real deployment, check every output against a reference
// computation, and print every metric by name with its unit. README.md
// in this directory describes the workloads and metrics.
//
//	go run -C benchmark .                                   every workload, untraced and traced
//	go run -C benchmark . -runs 10 -out new.json            ten seeds each, results kept
//	go run -C benchmark . -compare base.json new.json       judge one result file against another
//	go run -C benchmark . --workload fleet-serve --seed 7 --seconds 20 --trace 0
//
// The last form is one run of one workload; its last line of output is
// the result as one JSON object.
//
// The directory is a module of its own (the benchmark contract asks for
// a build file of its own), so the repository's go build ./... and
// go test ./... pass it by; go vet and go test run from inside it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 2015, "input seed: same seed, same inputs")
		secs    = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines")
		runs    = flag.Int("runs", 1, "all-workload mode: runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "all-workload mode: write the results to this JSON file")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runOne(&runConfig{workload: *name, seed: *seed, seconds: *secs, trace: *trace != 0, spans: *spans, scale: 1})
	default:
		err = runAll(*seed, *secs, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg *runConfig) error {
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		if cfg.seconds < 1 {
			return fmt.Errorf("-seconds must be at least 1")
		}
		res, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		specs := endToEnd
		if cfg.trace {
			specs = perLayer
		}
		res.complete(specs, !cfg.trace)
		fmt.Printf("# %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
			w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		return res.print(os.Stdout, specs)
	}
	return fmt.Errorf("unknown workload %q", cfg.workload)
}

// stamp says where and from what a result file was measured.
type stamp struct {
	Date       string  `json:"date"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type resultFile struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runRecord `json:"runs"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runAll runs every workload, untraced and traced, each in a child
// process of its own so that set-up time and memory are per workload.
func runAll(seed uint64, secs float64, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Stamp: stamp{
		Date: time.Now().UTC().Format(time.RFC3339), Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: secs,
	}}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+uint64(r)),
					"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace))
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				os.Stdout.Write(stdout.Bytes())
				fmt.Println()
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				rec := runRecord{Workload: w.name, Seed: seed + uint64(r), Trace: trace}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
					return fmt.Errorf("%s: result line: %w", w.name, err)
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	printScaling(&file)
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// printScaling prints fleet-serve's saturation throughput over its
// single-threaded baseline — unless the box has one CPU, where the
// ratio says nothing about scaling and is withheld.
func printScaling(file *resultFile) {
	var multi, single []float64
	for _, r := range file.Runs {
		if r.Workload != "fleet-serve" {
			continue
		}
		if v, ok := r.Metrics["dp_per_s"]; ok && r.Trace == 0 {
			multi = append(multi, v.Value)
		}
		if v, ok := r.Metrics["proc.dp_per_s_gomaxprocs1"]; ok && r.Trace == 1 {
			single = append(single, v.Value)
		}
	}
	if len(multi) == 0 || len(single) == 0 {
		return
	}
	if file.Stamp.NProc < 2 {
		fmt.Println("# scaling: withheld, nproc is 1: a ratio to the GOMAXPROCS(1) run would not measure scaling")
		return
	}
	base := median(single)
	fmt.Printf("# scaling: fleet-serve dp_per_s at GOMAXPROCS=%d is %.2fx its GOMAXPROCS(1) run (base %.0f dp/s, nproc %d)\n",
		file.Stamp.GOMAXPROCS, median(multi)/base, base, file.Stamp.NProc)
}
