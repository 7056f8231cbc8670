// Command benchmark is the repository's benchmark: five named workloads over
// the oblivious analytics engine, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. README.md in this directory defines
// every workload and metric; BENCHMARK.json at the repository root declares
// them to the driver.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// info is the line before the result: what ran, why the workload exists, and
// on what machine. It claims nothing: the accepted commit's numbers are the
// baseline later issues are measured against.
type info struct {
	Workload      string  `json:"workload"`
	Why           string  `json:"why"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Traced        bool    `json:"traced"`
	Samples       int     `json:"samples"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Workers       int     `json:"workers"`
	Clients       int     `json:"clients"`
	Oversubscribe bool    `json:"oversubscribed"`
	Claim         *string `json:"claim"`
}

// output is the result line the driver reads.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced run sets up; setup_s is the median.
const setupReps = 5

// runWorkload makes one run, unless the build cannot produce honest numbers.
func runWorkload(w workloadDef, trace bool, o runOpts) (runResult, error) {
	if raceEnabled {
		return runResult{}, errors.New("built with -race: the race detector slows the engine severalfold, no numbers produced")
	}
	return dispatch(w, trace, o)
}

// dispatch makes one run: traced for the per-layer metrics, untraced for the
// end-to-end ones. End-to-end numbers are never taken from a traced run.
func dispatch(w workloadDef, trace bool, o runOpts) (runResult, error) {
	switch {
	case w.serve && trace:
		return traceServe(w, o)
	case trace:
		return traceBatch(w, o)
	}
	measure := measureBatch
	if w.serve {
		measure = measureServe
	}
	res, err := measure(w, o)
	if err != nil {
		return res, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return res, err
	}
	res.metrics["peak_rss_mb"] = metric{Value: rss, Unit: endToEndUnits["peak_rss_mb"]}
	return res, nil
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	secs := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end)")
	outDir := flag.String("outdir", "benchmark/out", "where a traced run writes trace-<workload>.jsonl")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, *trace == 1, runOpts{
		seed:   *seed,
		sz:     fullSizes,
		window: time.Duration(*secs * float64(time.Second)),
		setups: setupReps,
		outDir: *outDir,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info{
		Workload: w.name, Why: w.why, Seed: *seed, Seconds: *secs, Traced: *trace == 1, Samples: res.samples,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: workers, Clients: serveClients,
		Oversubscribe: runtime.GOMAXPROCS(0) < workers,
	}); err != nil {
		return err
	}
	return enc.Encode(output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
