// Command servebench is the repository's serving benchmark: it drives a real
// xqserve -waldir subprocess over loopback HTTP with one seeded, open-loop
// workload and prints every end-to-end metric (-trace 0) or every per-layer
// metric from an in-process traced replay (-trace 1). See README.md.
//
//	bash servebench/run.sh --workload pers-materialise --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The exit status is non-zero when a correctness or durability gate fails
// (the result line then reads "correct": false) or the run cannot complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           []metric
	// gate is the first correctness or durability violation (nil: none).
	gate error
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// gateFail records a correctness or durability violation (the first one
// wins; the run continues so every metric is still reported).
func (r *result) gateFail(err error) {
	if err != nil && r.gate == nil {
		r.gate = err
	}
}

// started is when the process started; progress lines on standard error
// carry the elapsed time.
var started = time.Now()

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// runDeadline keeps every run inside the three minutes a run may take.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: pers-materialise, dblp-selective or pers-churn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "length of the fixed-rate measurement phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from a traced in-process replay")
	bin := flag.String("xqserve", "", "path of the xqserve binary")
	workDir := flag.String("workdir", ".bench_build", "directory for WAL directories and logs")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *bin, *workDir); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, bin, workDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) || bin == "" {
		return fmt.Errorf("need -seconds >= 1, -trace 0 or 1 and -xqserve")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	header, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"env": readEnvironment(root, dir),
	})
	fmt.Printf("servebench %s\n", header)
	rc := runConfig{w: w, seed: seed, dur: time.Duration(seconds) * time.Second, bin: bin, dir: dir}
	var res *result
	if trace == 1 {
		res, err = tracedRun(ctx, rc)
	} else {
		res, err = serveRun(ctx, rc)
	}
	if err != nil {
		return err
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.gate == nil, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.gate != nil {
		return fmt.Errorf("gate failed: %w", res.gate)
	}
	return nil
}

// runConfig is what every run mode needs.
type runConfig struct {
	w    workload
	seed int64
	dur  time.Duration // fixed-rate phase length
	bin  string        // xqserve binary
	dir  string        // this run's private directory
}

func (rc runConfig) walDir(k int) string { return filepath.Join(rc.dir, fmt.Sprintf("wal-%d", k)) }
func (rc runConfig) logPath() string     { return filepath.Join(rc.dir, "xqserve.log") }
