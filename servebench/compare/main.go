// Command compare sets two sets of servebench runs side by side: one row
// per workload and metric with each side's median and quartiles, the share
// of paired runs the second set wins, and, for an end-to-end metric, a
// verdict against its bound in BENCHMARK.json.
//
//	go -C servebench run ./compare -bench ../BENCHMARK.json ../runs/base ../runs/head
//
// A set is a directory of files, each holding the standard output of one
// run (the "servebench {...}" header line names the workload and seed; the
// last line is the result). Runs are paired by workload and seed, or by
// order within a workload when the seeds differ.
//
// Verdicts:
//
//	improved   the second set wins at least 9 of every 10 pairs (at least
//	           10 pairs) and its median beats the first's by more than the
//	           first set's interquartile range
//	worse      the second median is worse than the first by more than the
//	           bound (a share of the first median)
//	unresolved neither, and the first set's spread (interquartile range over
//	           median) is wider than the bound
//	unchanged  otherwise
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// run is one benchmark run's parsed output.
type run struct {
	workload string
	seed     int64
	metrics  map[string]float64
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] <first-set-dir> <second-set-dir>")
		os.Exit(2)
	}
	if err := compare(*benchPath, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(1)
	}
}

func compare(benchPath, dirA, dirB string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readSet(dirA)
	if err != nil {
		return err
	}
	bs, err := readSet(dirB)
	if err != nil {
		return err
	}
	type metricSpec struct {
		name, unit string
		lower      bool
		bound      float64 // <0: per-layer, no verdict
	}
	var metrics []metricSpec
	for _, m := range spec.EndToEnd {
		metrics = append(metrics, metricSpec{m.Name, m.Unit, m.Better == "lower", m.Bound})
	}
	for _, m := range spec.PerLayer {
		metrics = append(metrics, metricSpec{m.Name, m.Unit, m.Better == "lower", -1})
	}
	var workloads []string
	for w := range a {
		if _, ok := bs[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	fmt.Printf("%-18s %-30s %-6s %28s %28s %8s %7s  %s\n", "workload", "metric", "unit", "first: median [q1, q3]", "second: median [q1, q3]", "change", "wins", "verdict")
	for _, w := range workloads {
		pa, pb := pairRuns(a[w], bs[w])
		for _, m := range metrics {
			va, vb := values(pa, m.name), values(pb, m.name)
			if len(va) == 0 || len(vb) == 0 || len(va) != len(vb) {
				continue
			}
			better := func(x, y float64) bool { // x better than y
				if m.lower {
					return x < y
				}
				return x > y
			}
			wins := 0
			for i := range va {
				if better(vb[i], va[i]) {
					wins++
				}
			}
			q1a, meda, q3a := quartiles(va)
			q1b, medb, q3b := quartiles(vb)
			change := 0.0
			if meda != 0 {
				change = (medb - meda) / math.Abs(meda)
			}
			verdict := "-"
			if m.bound >= 0 {
				verdict = judge(va, vb, m.bound, wins, better)
			}
			fmt.Printf("%-18s %-30s %-6s %28s %28s %+7.1f%% %3d/%-3d  %s\n", w, m.name, m.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", meda, q1a, q3a), fmt.Sprintf("%.4g [%.4g, %.4g]", medb, q1b, q3b),
				100*change, wins, len(va), verdict)
		}
	}
	return nil
}

// judge applies the verdict rules of the package comment.
func judge(va, vb []float64, bound float64, wins int, better func(x, y float64) bool) string {
	q1a, meda, q3a := quartiles(va)
	_, medb, _ := quartiles(vb)
	iqr := q3a - q1a
	if len(va) >= 10 && float64(wins) >= 0.9*float64(len(va)) && better(medb, meda) && math.Abs(medb-meda) > iqr {
		return "improved"
	}
	if better(meda, medb) && math.Abs(medb-meda) > bound*math.Abs(meda) {
		return "worse"
	}
	if meda != 0 && iqr/math.Abs(meda) > bound {
		return "unresolved"
	}
	return "unchanged"
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(xs, n=4) and statistics.median do.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if ld%2 == 1 {
		med = s[ld/2]
	} else {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	return cut(1), med, cut(3)
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// pairRuns pairs two workloads' runs by seed when both sets have the same
// seeds, and by order otherwise; unpaired runs are dropped.
func pairRuns(a, b []run) ([]run, []run) {
	bySeed := map[int64]run{}
	for _, r := range b {
		bySeed[r.seed] = r
	}
	var pa, pb []run
	for _, r := range a {
		if o, ok := bySeed[r.seed]; ok {
			pa, pb = append(pa, r), append(pb, o)
		}
	}
	if len(pa) == len(a) && len(pa) == len(b) {
		return pa, pb
	}
	n := min(len(a), len(b))
	return a[:n], b[:n]
}

// readSet reads every run file of dir, grouped by workload and ordered by
// seed.
func readSet(dir string) (map[string][]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if r != nil {
			out[r.workload] = append(out[r.workload], *r)
		}
	}
	for _, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].seed < runs[j].seed })
	}
	return out, nil
}

// readRun parses one run's output; a file without a servebench header or a
// result line is skipped (nil).
func readRun(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var header struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
	}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "servebench {"); ok {
			rest = "{" + rest
			if err := json.Unmarshal([]byte(rest), &header); err != nil {
				return nil, fmt.Errorf("%s: header: %w", path, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if header.Workload == "" || json.Unmarshal([]byte(last), &res) != nil || res.Metrics == nil {
		return nil, nil
	}
	r := &run{workload: header.Workload, seed: header.Seed, metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}
