// Command perfbench is the repository benchmark. It drives the detector
// stack only through its public functions, against the in-process simulated
// chain, and prints one JSON result line:
//
//	go run . --workload backfill-cold --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json at the repository root for why each exists):
//
//   - backfill-cold: repeated NewBackfill passes over the whole study window
//     of a PaperScaleConfig chain, each with a freshly loaded detector (cold
//     score cache), one unlimited RPC endpoint, an on-disk checkpoint and a
//     JSONL alert sink.
//   - score-open: an open-loop /score schedule through NewClusterRouter in
//     front of two NewScoreHandler replicas at three fixed rates, interleaved
//     with closed-loop windows that measure the saturation rate.
//   - txwatch-durable: repeated NewTxWatcher drains of the pending-tx feed
//     through NewFusedTxScorer, with an on-disk checkpoint and a JSONL
//     sink. The traced run replays a drain's alerts through OpenAlertWAL,
//     which fsyncs its sent ledger on every alert.
//
// Every workload reports the same end-to-end metric names, each read in the
// workload's own unit of work:
//
//	setup_s          median of repeated set-ups: simulation start, training, warm-up
//	throughput_per_s backfill: contracts/s; txwatch: txs/s; score: the
//	                 saturation rate of two connections, beyond which the backlog grows
//	latency_p50_ms   backfill/txwatch: median time from pass start to an alert,
//	                 median over passes; score: median request latency at the
//	                 mid rate, median over windows
//	heap_live_mb     live heap after a forced GC, read after a fixed amount of
//	                 work: backfill/txwatch after pass 3, that pass's watcher
//	                 still live; score after the run's fixed set of windows
//
// Timings are in reference time: the wall-clock figure scaled by how fast
// the host ran a fixed calibration kernel during the run (calib.go), so a
// host that drifts between fast and slow phases cancels out while a change
// to the program shows in full. The wall-clock figures and the scale are in
// the config line.
//
// Tail percentiles (p90, p99) are recorded in the config line, per rate for
// score-open, but not gated: on a shared two-vCPU VM they track host
// scheduling more than the program.
//
// With --trace 1 the run installs timing wrappers on every interface the
// pipelines accept, replays the workload's inputs through the layers no
// interface reaches, and reports per-layer metrics instead (zero where a
// layer does not run in the workload). Spans are written under --out.
//
// Every result is checked by a per-workload oracle; a mismatch counts as a
// failed operation and makes "correct" false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks the corpus to DefaultSimulationConfig and the
	// windows to fractions of a second. Only the benchmark's own tests
	// set it; the command line has no flag for it.
	Smoke bool
	// Setups is how many times set-up is repeated for setup_s (3 from the
	// command line; tests use 1).
	Setups int
	// Dir holds the run's checkpoints, alert files and trace output.
	Dir string
	// Fault, when non-nil, wraps the scorers the program is handed; tests
	// use it to inject a wrong verdict and check the oracle catches it.
	Fault *fault
	// Cal measures the host's speed during the run (see calib.go).
	Cal *calibrator
}

// outcome is what a workload hands back to main.
type outcome struct {
	Attempted, Failed int64
	EndToEnd          map[string]metric
	Layers            map[string]metric
	// Record is workload-specific context printed with the config line.
	Record map[string]any
	// Spans is the traced run's tracer, written out at the end.
	Spans *tracer
}

var workloads = map[string]func(options) (*outcome, error){
	"backfill-cold":   runBackfill,
	"score-open":      runScore,
	"txwatch-durable": runTxwatch,
}

func main() {
	o := options{Setups: 3}
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "backfill-cold | score-open | txwatch-durable")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed")
	flag.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.Dir, "out", filepath.Join(".bench_build", "perfbench"), "work and trace directory")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.Trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles the result, printing the config
// record (machine, toolchain, commit, seed, corpus sizes, rates) first.
func run(o options) (*result, error) {
	fn, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.Setups < 1 {
		return nil, fmt.Errorf("at least one set-up is needed, got %d", o.Setups)
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.Dir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	traceDir := o.Dir
	o.Dir = work
	if o.Cal, err = newCalibrator(); err != nil {
		return nil, err
	}
	defer o.Cal.close()
	start := time.Now()
	out, err := fn(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	res := &result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   out.EndToEnd,
	}
	if o.Trace {
		res.Metrics = out.Layers
		if out.Spans != nil {
			path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.Workload, o.Seed))
			if err := out.Spans.writeSpans(path); err != nil {
				return nil, err
			}
			out.Record["trace_file"] = path
		}
	}
	rec := map[string]any{
		"workload":        o.Workload,
		"seed":            o.Seed,
		"seconds":         o.Seconds,
		"trace":           o.Trace,
		"smoke":           o.Smoke,
		"setups":          o.Setups,
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"goos_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":          commit(),
		"wall_s":          time.Since(start).Seconds(),
		"workload_record": out.Record,
		"result":          res,
	}
	line, err := json.Marshal(map[string]any{"config": rec})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// commit names the measured source: PERFBENCH_COMMIT when the runner sets
// it (a git revision, or a digest of the sources in a plain checkout),
// otherwise "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
