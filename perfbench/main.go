// Command perfbench is the FCMA benchmark. It generates seeded
// inputs, runs one workload through the library's public entry points,
// checks every result, and prints one JSON line of metrics:
//
//	perfbench --workload select-facescene --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with the program's
// own tracing off. With --trace 1 it makes the separate traced run: it
// times each layer from outside, by calling the layers' public functions
// in the order core.Worker.ProcessContext calls them, and reports the
// per-layer metrics. run.sh builds it from source and runs it; README.md
// lists the workloads and what every metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runTimeout bounds one run after the build.
const runTimeout = 150 * time.Second

// result is the one JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	traced := flag.Int("trace", 0, "1 makes the traced per-layer run; 0 measures end to end")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Every run ends well inside the 180 seconds it is allowed, even if a
	// job or a cluster run hangs.
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res, err = traceRun(ctx, w, *seed, dir, budget)
	} else {
		res, err = endToEnd(ctx, w, *seed, dir, budget)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
