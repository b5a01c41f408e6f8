package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// setupRuns is how many times a run sets the server up; setup_s is
	// their median.
	setupRuns = 3
	// warmup is the unmeasured fixed-rate phase that fills the plan cache
	// and the buffer pools before timing starts.
	warmup = time.Second
	// restarts is how many SIGKILL restarts a run times; recovery_s is
	// their median.
	restarts = 3
	// saturationPhase is the closed-loop phase that measures saturation
	// throughput, in saturationWindows windows; capacitySteps bounds the
	// open-loop steps below it.
	saturationPhase   = 4500 * time.Millisecond
	saturationWindows = 3
	capacitySteps     = 6
	// failedLatency stands in for the latency of a failed or skipped
	// request: it misses every limit.
	failedLatency = runDeadline
)

// capacityStep is the length of one capacity-search step.
func capacityStep(dur time.Duration) time.Duration {
	return max(2*time.Second, dur/8)
}

// wrongAnswer marks a response that disagreed with the oracle.
type wrongAnswer struct{ err error }

func (e wrongAnswer) Error() string { return "wrong answer: " + e.err.Error() }

// tally folds a stream's accounting into the run result; a wrong answer
// fails the correctness gate.
func (r *result) tally(s streamResult) {
	a, _, f, _ := s.accounting()
	r.attempted += a
	r.failed += f
	for _, sm := range s.samples {
		var wa wrongAnswer
		if errors.As(sm.err, &wa) {
			r.gateFail(wa)
		}
	}
}

// latenciesWithFailures returns the latencies (ms) of the dispatched
// requests kept by keep, counting a failed or skipped one as failedLatency.
func latenciesWithFailures(s streamResult, keep func(i int) bool) []float64 {
	var out []float64
	for i, sm := range s.samples {
		if !sm.dispatched || (keep != nil && !keep(i)) {
			continue
		}
		d := sm.latency
		if sm.err != nil || sm.skipped {
			d = failedLatency
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// streamConns opens the generator's two connections: read-only workloads
// send queries on both (and their write probe on the second afterwards);
// pers-churn gives the second to its mutation stream.
func streamConns(w workload) (queries []*conn, mutations *conn) {
	c := []*conn{newConn(), newConn()}
	if w.churn {
		return c[:1], c[1]
	}
	return c, c[1]
}

// querySender returns a query stream's send function: it sends pool[op] to
// srv and checks the response against the oracle's count want[op], adding
// the response's size to respBytes when that is non-nil.
func querySender(srv *server, pool []query, want []int, respBytes *atomic.Int64) func(*conn, int) error {
	return func(c *conn, op int) error {
		if err := c.do("GET", srv.url(pool[op].path()), ""); err != nil {
			return err
		}
		if respBytes != nil {
			respBytes.Add(int64(c.buf.Len()))
		}
		if err := checkQueryResponse(c.buf.Bytes(), want[op]); err != nil {
			return wrongAnswer{fmt.Errorf("%s: %w", pool[op].src, err)}
		}
		return nil
	}
}

// setupServer starts xqserve on a fresh WAL directory and loads the corpus
// over PUT on one connection. It returns the server and the setup time:
// server start to the last document acknowledged.
func setupServer(ctx context.Context, rc runConfig, k int, docs []document) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(ctx, rc.bin, rc.walDir(k), rc.logPath())
	if err != nil {
		return nil, 0, err
	}
	c := newConn()
	defer c.close()
	for _, d := range docs {
		if err := c.put(s, d.id, d.xml); err != nil {
			s.kill()
			return nil, 0, fmt.Errorf("loading %s: %w", d.id, err)
		}
	}
	return s, time.Since(t0), nil
}

// serveRun is the end-to-end run: repeated setups, a warm-up, the
// fixed-rate phase, the capacity search, the final-state check, and a
// SIGKILL restart that must recover every acknowledged write.
func serveRun(ctx context.Context, rc runConfig) (*result, error) {
	w := rc.w
	docs, err := corpusDocs(w)
	if err != nil {
		return nil, err
	}
	pool := queryPool(w, rc.seed)
	or := newOracle()
	want, err := expectedCounts(or, docs, pool)
	if err != nil {
		return nil, err
	}
	// pers-churn's stream spans the fixed-rate phase, so every run commits
	// the same number of mutations.
	nmut := w.probe
	if w.churn {
		nmut = arrivals(w.mutationRate, rc.dur)
	}
	mutArr, muts, err := mutationPlan(w, rc.seed, nmut)
	if err != nil {
		return nil, err
	}

	logf("inputs and oracle ready")
	res := &result{}
	var setups []float64
	var srv *server
	for k := 0; k < setupRuns; k++ {
		s, d, err := setupServer(ctx, rc, k, docs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < setupRuns-1 {
			s.kill()
			os.RemoveAll(rc.walDir(k))
		} else {
			srv = s
		}
	}
	walDir := rc.walDir(setupRuns - 1)
	defer func() { srv.kill() }()
	logf("setups done: %v s", setups)

	qconns, mconn := streamConns(w)
	defer func() {
		qconns[0].close()
		mconn.close()
	}()
	sendQuery := querySender(srv, pool, want, nil)
	queries := func(label string, rate float64, n int, paced bool, ctl loopControl) streamResult {
		s := runOpenLoop(querySchedule(w, pool, rc.seed, label, rate, n, paced), qconns, ctl, sendQuery)
		res.tally(s)
		return s
	}
	sendMutation := func(c *conn, op int) error { return c.mutate(srv, muts[op]) }
	var mutRes streamResult
	var mutWG sync.WaitGroup

	queries("warmup", w.queryRate, arrivals(w.queryRate, warmup), false, loopControl{})
	if w.churn {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			mutRes = runOpenLoop(mutArr, []*conn{mconn}, loopControl{}, sendMutation)
		}()
	}
	fixed := queries("fixed", w.queryRate, arrivals(w.queryRate, rc.dur), false, loopControl{})
	mutWG.Wait()
	lat := latenciesWithFailures(fixed, nil)
	p95 := quantile(lat, 0.95)
	logf("fixed phase done: %d requests, p95 %.1f ms", len(lat), p95)
	saturate := func(d time.Duration) float64 {
		pick := newPicker(w, pool, rand.New(rand.NewSource(subSeed(rc.seed, "saturation"))))
		s := runClosedLoop(qconns, d, pick.next, sendQuery)
		res.tally(s)
		a, _, _, _ := s.accounting()
		return float64(a) / d.Seconds()
	}
	capacity := searchCapacity(w, rc.dur, saturate, queries)
	logf("capacity search done: %.2f/s", capacity)

	checker := newConn()
	defer checker.close()
	var rss, spaceAmp float64
	measureState := func(l ledger) error {
		res.gateFail(checkState(checker, srv, w, l, pool, or))
		var err error
		if rss, err = srv.peakRSSMB(); err != nil {
			return err
		}
		walBytes, err := dirBytes(walDir)
		spaceAmp = ratio(float64(walBytes), float64(l.xmlBytes()))
		return err
	}
	// The ledger: the corpus plus every acknowledged mutation, in order.
	l := newLedger(docs)
	if !w.churn {
		if err := measureState(l); err != nil {
			return nil, err
		}
		mutRes = runSequence(mconn, len(muts), sendMutation)
	}
	res.tally(mutRes)
	for _, s := range mutRes.samples {
		if s.dispatched && s.err == nil {
			l.apply(muts[s.op])
		}
	}
	mutLat := ms(mutRes.okLatencies(nil))
	if checker.do("GET", srv.url("/ingest"), "") == nil {
		logf("mutations done: %d latencies; write path: %s", len(mutLat), bytes.TrimSpace(checker.buf.Bytes()))
	}
	if w.churn {
		if err := measureState(l); err != nil {
			return nil, err
		}
	}

	// Durability: SIGKILL, restart on the same WAL directory, and require
	// every acknowledged write — after the first restart and the last.
	var recovery []float64
	for k := 0; k < restarts; k++ {
		srv.kill()
		t0 := time.Now()
		srv, err = startServer(ctx, rc.bin, walDir, rc.logPath())
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recovery = append(recovery, time.Since(t0).Seconds())
		if k == 0 || k == restarts-1 {
			if err := checkState(checker, srv, w, l, pool, or); err != nil {
				res.gateFail(fmt.Errorf("after SIGKILL and restart: %w", err))
			}
		}
	}
	logf("recovered in %v s", recovery)

	res.add("setup_s", median(setups), "s")
	res.add("query_p50_ms", quantile(lat, 0.5), "ms")
	res.add("query_p95_ms", p95, "ms")
	res.add("query_capacity_qps", capacity, "1/s")
	res.add("mutation_p50_ms", quantile(mutLat, 0.5), "ms")
	res.add("mutation_p95_ms", quantile(mutLat, 0.95), "ms")
	res.add("recovery_s", median(recovery), "s")
	res.add("server_peak_rss_mb", rss, "MiB")
	res.add("space_amp", spaceAmp, "ratio")
	return res, nil
}

// millis converts a duration to milliseconds.
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// expectedCounts is what each pool query must report on the initial
// corpus. Mutations only add or remove their own documents, and on
// pers-churn every query is limited below the initial corpus's count, so
// these counts hold for the whole run.
func expectedCounts(or *oracle, docs []document, pool []query) ([]int, error) {
	counts, err := or.counts(newLedger(docs), pool)
	if err != nil {
		return nil, err
	}
	want := make([]int, len(pool))
	for i, q := range pool {
		want[i] = expectedCount(q, counts[i])
	}
	return want, nil
}

// searchCapacity finds the highest offered query rate at which p95 meets
// the workload's latency limit with no failed or skipped request. It first
// measures the saturation throughput X: the completion rate of the query
// connections sending back to back, the median of three windows. No offered
// rate at or above X keeps the backlog from growing, so it then offers
// evenly spaced open-loop steps at 95%, 90%, ... of X and returns the first
// rate that meets the limit — resolved to 5% of X. A rate gets two
// attempts, so one burst of outside load cannot fail it; an attempt stops
// early once more than 5% of its requests have missed the limit.
func searchCapacity(w workload, dur time.Duration, saturate func(time.Duration) float64, queries func(string, float64, int, bool, loopControl) streamResult) float64 {
	var xs []float64
	for k := 0; k < saturationWindows; k++ {
		xs = append(xs, saturate(saturationPhase/saturationWindows))
	}
	x := median(xs)
	logf("saturation throughput %.2f/s (windows %.1f)", x, xs)
	limit := millis(w.p95Limit)
	step := capacityStep(dur)
	rate := x
	for k := 1; k <= capacitySteps; k++ {
		rate = x * (1 - 0.05*float64(k))
		for attempt := 0; attempt < 2; attempt++ {
			if capacityAttempt(w, fmt.Sprintf("capacity-%d-%d", k, attempt), rate, step, limit, queries) {
				return rate
			}
		}
	}
	return rate
}

// capacityAttempt offers one evenly spaced step at rate and reports whether
// its p95 met the limit with no failed or skipped request.
func capacityAttempt(w workload, label string, rate float64, step time.Duration, limit float64, queries func(string, float64, int, bool, loopControl) streamResult) bool {
	n := arrivals(rate, step)
	allowed := int64(0.05 * float64(n))
	var missed atomic.Int64
	stop := make(chan struct{})
	var once sync.Once
	s := queries(label, rate, n, true, loopControl{
		// A request this late has already missed; skipping it keeps an
		// overloaded step from queueing into the next.
		abortAfter: 2 * w.p95Limit,
		stop:       stop,
		observe: func(sm sample) {
			if sm.skipped || sm.err != nil || millis(sm.latency) > limit {
				if missed.Add(1) > allowed {
					once.Do(func() { close(stop) })
				}
			}
		},
	})
	lat := latenciesWithFailures(s, nil)
	pass := missed.Load() <= allowed && quantile(lat, 0.95) <= limit
	logf("%s: %.2f/s, %d requests, p95 %.1f ms, pass %v", label, rate, len(lat), quantile(lat, 0.95), pass)
	return pass
}
