// Command perfbench is OFence-Go's end-to-end benchmark. It generates its
// inputs from a seed, drives the analyzer only through its exported Go
// entry points and HTTP handlers, checks every output against ground
// truth the generators emitted, and prints one JSON result line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload tree-cold --seed 1 --seconds 20 --trace 0
//
// Workloads: tree-cold, tree-edit, serve-mix, fleet-job. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 the per-layer
// metrics of a separate traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// treeFiles sizes the generated kernel tree (tree workloads).
	treeFiles int
	// setupReps is how many times set-up is measured (median reported).
	setupReps int
	// corrupt plants one wrong expectation in the ground truth, so the
	// self-test can show a failed check is counted.
	corrupt bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"tree-cold": runTreeCold,
	"tree-edit": runTreeEdit,
	"serve-mix": runServeMix,
	"fleet-job": runFleetJob,
}

func main() {
	var (
		workload = flag.String("workload", "", "tree-cold, tree-edit, serve-mix or fleet-job")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", 20, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		treeFiles: 2048,
		setupReps: 9,
	}
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload, prints the report and, as the last line, the
// JSON result.
func run(ctx context.Context, cfg config, w io.Writer) error {
	res, err := measure(ctx, cfg, w)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// measure runs the workload and assembles the result; every metric of the
// run's kind must have been measured.
func measure(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	o, err := fn(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	printReport(w, cfg, o)
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricDefs {
		if d.layer != cfg.trace {
			continue
		}
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// gomaxprocs is the Workers=N setting every workload compares with 1.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
