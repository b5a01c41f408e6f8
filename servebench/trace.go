package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sjos"
	"sjos/internal/storage"
)

// The traced run produces the per-layer metrics. It measures the served
// workload over HTTP once more (loadgen, plan cache and xqserve numbers),
// then replays the same seed, rate and worker count in-process through the
// public calls xqserve itself makes — ParsePattern, Corpus.QueryPatternContext
// and InsertString/ReplaceString/Delete — with spans around each call and
// timing wrappers on the page files handed in through
// CorpusOptions.ShardWALFile and ShardPageFile.

// reconcileTolerancePct is how far the spans of the in-process requests may
// fail to cover the requests' own time: parse + optimize + execute must
// account for all but this share of it, or the trace fails its gate.
const reconcileTolerancePct = 5.0

// unloadedQueries is how many queries the unloaded per-query pass times.
const unloadedQueries = 30

// ioStats accumulates the traffic of a set of timed page files.
type ioStats struct {
	reads, writes, syncs    atomic.Int64
	readNs, writeNs, syncNs atomic.Int64
	writeBytes              atomic.Int64
}

type ioSnap struct{ reads, writes, syncs, readNs, writeNs, syncNs, writeBytes int64 }

func (s *ioStats) snap() ioSnap {
	return ioSnap{s.reads.Load(), s.writes.Load(), s.syncs.Load(), s.readNs.Load(), s.writeNs.Load(), s.syncNs.Load(), s.writeBytes.Load()}
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{a.reads - b.reads, a.writes - b.writes, a.syncs - b.syncs, a.readNs - b.readNs, a.writeNs - b.writeNs, a.syncNs - b.syncNs, a.writeBytes - b.writeBytes}
}

// timedFile wraps a page file and times every page read, page write and
// sync into its ioStats. It forwards Sync only to a file that has one, so
// the WAL's fsync-on-commit is kept and a memory file stays sync-free.
type timedFile struct {
	inner sjos.PageFile
	st    *ioStats
}

func (f timedFile) ReadPage(id storage.PageID, dst *storage.Page) error {
	t0 := time.Now()
	err := f.inner.ReadPage(id, dst)
	f.st.readNs.Add(int64(time.Since(t0)))
	f.st.reads.Add(1)
	return err
}

func (f timedFile) WritePage(id storage.PageID, src *storage.Page) error {
	t0 := time.Now()
	err := f.inner.WritePage(id, src)
	f.st.writeNs.Add(int64(time.Since(t0)))
	f.st.writes.Add(1)
	f.st.writeBytes.Add(int64(len(src)))
	return err
}

func (f timedFile) NumPages() int { return f.inner.NumPages() }

func (f timedFile) Sync() error {
	s, ok := f.inner.(interface{ Sync() error })
	if !ok {
		return nil
	}
	t0 := time.Now()
	err := s.Sync()
	f.st.syncNs.Add(int64(time.Since(t0)))
	f.st.syncs.Add(1)
	return err
}

// inproc is an in-process corpus configured like xqserve -waldir -shards 4:
// per-shard WALs on disk (fsync on every commit), stores in memory.
type inproc struct {
	c          *sjos.Corpus
	wal, store *ioStats // nil when untimed
}

func buildInproc(dir string, docs []document, timed bool) (*inproc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ip := &inproc{}
	if timed {
		ip.wal, ip.store = &ioStats{}, &ioStats{}
	}
	var fileErr error
	opts := &sjos.CorpusOptions{
		Shards: shards,
		ShardWALFile: func(s int) sjos.PageFile {
			f, err := sjos.CreatePageFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", s)))
			if err != nil {
				fileErr = err
				return sjos.NewMemPageFile()
			}
			if timed {
				return timedFile{f, ip.wal}
			}
			return f
		},
	}
	if timed {
		opts.ShardPageFile = func(int, int) sjos.PageFile { return timedFile{sjos.NewMemPageFile(), ip.store} }
	}
	c, err := sjos.NewCorpusBuilder(opts).Build()
	if err == nil {
		err = fileErr
	}
	if err != nil {
		return nil, fmt.Errorf("building in-process corpus: %w", err)
	}
	for _, d := range docs {
		if err := c.InsertString(d.id, d.xml); err != nil {
			return nil, fmt.Errorf("loading %s in-process: %w", d.id, err)
		}
	}
	ip.c = c
	return ip, nil
}

// queryRec is one in-process query's spans.
type queryRec struct {
	op                          int
	total, parse, opt, exe, run time.Duration // run: the QueryPatternContext call
	cached                      bool
	count                       int
	exec                        sjos.ExecStats
}

// mutationRec is one in-process mutation's spans.
type mutationRec struct {
	op        string
	commit    time.Duration
	wal       ioSnap
	compacted bool
	docBytes  int
}

func queryOpts(q query) sjos.QueryOptions {
	return sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, Limit: q.limit}}
}

// inprocQuery runs one query the way xqserve's /query handler does (parse,
// then QueryPatternContext with the server's default method) and checks it
// against the oracle.
func inprocQuery(ctx context.Context, c *sjos.Corpus, q query, want int) (queryRec, error) {
	t0 := time.Now()
	pat, err := sjos.ParsePattern(q.src)
	if err != nil {
		return queryRec{}, err
	}
	t1 := time.Now()
	r, err := c.QueryPatternContext(ctx, pat, queryOpts(q))
	t2 := time.Now()
	if err != nil {
		return queryRec{}, err
	}
	if r.Count != want || len(r.Matches) != r.Count {
		return queryRec{}, wrongAnswer{fmt.Errorf("%s in-process: count %d with %d matches, oracle says %d", q.src, r.Count, len(r.Matches), want)}
	}
	return queryRec{total: t2.Sub(t0), parse: t1.Sub(t0), run: t2.Sub(t1), opt: r.OptimizeTime, exe: r.ExecuteTime,
		cached: r.CachedPlan, count: r.Count, exec: r.Exec}, nil
}

func (ip *inproc) mutate(m mutation) (mutationRec, error) {
	var w0 ioSnap
	if ip.wal != nil {
		w0 = ip.wal.snap()
	}
	c0 := ip.c.IngestStats().Compactions
	t0 := time.Now()
	var err error
	switch m.op {
	case "insert":
		err = ip.c.InsertString(m.id, m.xml)
	case "replace":
		err = ip.c.ReplaceString(m.id, m.xml)
	default:
		err = ip.c.Delete(m.id)
	}
	rec := mutationRec{op: m.op, commit: time.Since(t0), docBytes: len(m.xml)}
	if ip.wal != nil {
		rec.wal = ip.wal.snap().sub(w0)
	}
	rec.compacted = ip.c.IngestStats().Compactions > c0
	return rec, err
}

// replay is one in-process open-loop replay's records.
type replay struct {
	queries   []queryRec
	mutations []mutationRec
	stream    streamResult
}

// replayInproc replays the workload's fixed-rate phase in-process: the
// schedules, rates and worker counts of the HTTP run.
func replayInproc(ctx context.Context, ip *inproc, rc runConfig, label string, pool []query, want []int, muts []mutation, mutArr []arrival, dur time.Duration) replay {
	w := rc.w
	var mu sync.Mutex
	var rp replay
	workers := []int{0, 1}
	var wg sync.WaitGroup
	if w.churn {
		workers = workers[:1]
		var sched []arrival
		for _, a := range mutArr {
			if a.due < dur {
				sched = append(sched, a)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOpenLoop(sched, []int{0}, loopControl{}, func(_ int, op int) error {
				rec, err := ip.mutate(muts[op])
				if err == nil {
					mu.Lock()
					rp.mutations = append(rp.mutations, rec)
					mu.Unlock()
				}
				return err
			})
		}()
	}
	rp.stream = runOpenLoop(querySchedule(w, pool, rc.seed, label, w.queryRate, arrivals(w.queryRate, dur), false), workers, loopControl{}, func(_ int, op int) error {
		rec, err := inprocQuery(ctx, ip.c, pool[op], want[op])
		if err == nil {
			rec.op = op
			mu.Lock()
			rp.queries = append(rp.queries, rec)
			mu.Unlock()
		}
		return err
	})
	wg.Wait()
	return rp
}

// unloadedRec is one query of the unloaded per-query pass.
type unloadedRec struct {
	shape                  string
	http, inproc           time.Duration
	optimize               time.Duration
	plans                  int
	countOnly, materialise time.Duration
}

// unloadedOps draws the queries of the unloaded pass with the workload's
// query mix.
func unloadedOps(w workload, pool []query, seed int64) []int {
	pick := newPicker(w, pool, rand.New(rand.NewSource(subSeed(seed, "unloaded"))))
	ops := make([]int, unloadedQueries)
	for i := range ops {
		ops[i] = pick.next()
	}
	return ops
}

// unloadedInproc times each query alone in-process: the warm served path
// (parse + QueryPatternContext), a cold optimizer run (OptimizeContext, no
// cache), and the chosen plan run with and without CountOnly — the
// difference being the corpus gather and materialisation of the matches.
func unloadedInproc(ctx context.Context, c *sjos.Corpus, pool []query, want []int, ops []int, recs []unloadedRec) error {
	for pass := 0; pass < 2; pass++ { // the first pass warms the plan cache
		for i, op := range ops {
			r, err := inprocQuery(ctx, c, pool[op], want[op])
			if err != nil {
				return err
			}
			recs[i].inproc = r.total
		}
	}
	for i, op := range ops {
		q := pool[op]
		pat, err := sjos.ParsePattern(q.src)
		if err != nil {
			return err
		}
		t0 := time.Now()
		opt, err := c.OptimizeContext(ctx, pat, sjos.MethodDPP, 0)
		if err != nil {
			return err
		}
		recs[i].optimize = time.Since(t0)
		recs[i].plans = opt.Counters.PlansConsidered
		recs[i].shape = q.shape
		for _, countOnly := range []bool{true, false} {
			t0 := time.Now()
			rr, err := c.Run(ctx, pat, opt.Plan, sjos.RunOptions{ExecOptions: sjos.ExecOptions{Limit: q.limit}, CountOnly: countOnly})
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if rr.Count != want[op] {
				return wrongAnswer{fmt.Errorf("%s: Run count %d, oracle says %d", q.src, rr.Count, want[op])}
			}
			if countOnly {
				recs[i].countOnly = d
			} else {
				recs[i].materialise = d
			}
		}
	}
	return nil
}

// span is one recorded span of the traced replay; parent is the index of
// the span that caused it (-1 for a request's root).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func tracedRun(ctx context.Context, rc runConfig) (*result, error) {
	w := rc.w
	docs, err := corpusDocs(w)
	if err != nil {
		return nil, err
	}
	pool := queryPool(w, rc.seed)
	want, err := expectedCounts(newOracle(), docs, pool)
	if err != nil {
		return nil, err
	}
	phase := max(2*time.Second, rc.dur/3)
	var mutArr []arrival
	var muts []mutation
	if w.churn {
		if mutArr, muts, err = mutationPlan(w, rc.seed, arrivals(w.mutationRate, phase)); err != nil {
			return nil, err
		}
	}
	res := &result{}
	ops := unloadedOps(w, pool, rc.seed)
	recs := make([]unloadedRec, len(ops))

	// Over HTTP: the served fixed-rate phase, then the unloaded pass.
	srv, _, err := setupServer(ctx, rc, 0, docs)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	qconns, mconn := streamConns(w)
	defer func() {
		qconns[0].close()
		mconn.close()
	}()
	var respBytes atomic.Int64
	sendQuery := querySender(srv, pool, want, &respBytes)
	res.tally(runOpenLoop(querySchedule(w, pool, rc.seed, "warmup", w.queryRate, arrivals(w.queryRate, warmup), false), qconns, loopControl{}, sendQuery))
	m0, err := qconns[0].metrics(srv)
	if err != nil {
		return nil, err
	}
	respBytes.Store(0)
	var mutRes streamResult
	var wg sync.WaitGroup
	if w.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mutRes = runOpenLoop(mutArr, []*conn{mconn}, loopControl{}, func(c *conn, op int) error { return c.mutate(srv, muts[op]) })
		}()
	}
	served := runOpenLoop(querySchedule(w, pool, rc.seed, "fixed", w.queryRate, arrivals(w.queryRate, phase), false), qconns, loopControl{}, sendQuery)
	wg.Wait()
	m1, err := qconns[0].metrics(srv)
	if err != nil {
		return nil, err
	}
	res.tally(served)
	commits := 0
	if w.churn {
		res.tally(mutRes)
		_, commits, _, _ = mutRes.accounting()
	}
	_, servedOK, servedFailed, _ := served.accounting()
	for pass := 0; pass < 2; pass++ { // the first pass warms the plan cache
		for i, op := range ops {
			t0 := time.Now()
			if err := sendQuery(qconns[0], op); err != nil {
				return nil, err
			}
			recs[i].http = time.Since(t0)
		}
	}
	srv.kill()
	logf("HTTP phase done: %d queries, %d commits", servedOK, commits)

	// In-process: an untraced corpus for the unloaded pass and the untraced
	// replay, a timed one for the traced replay; both start from the corpus.
	plain, err := buildInproc(filepath.Join(rc.dir, "inproc-plain"), docs, false)
	if err != nil {
		return nil, err
	}
	timed, err := buildInproc(filepath.Join(rc.dir, "inproc-timed"), docs, true)
	if err != nil {
		return nil, err
	}
	if err := unloadedInproc(ctx, plain.c, pool, want, ops, recs); err != nil {
		res.gateFail(err)
		return res, nil
	}
	// Warm both plan caches the way the HTTP warm-up did.
	for _, ip := range []*inproc{plain, timed} {
		res.tally(replayInproc(ctx, ip, rc, "warmup", pool, want, nil, nil, warmup).stream)
	}
	untraced := replayInproc(ctx, plain, rc, "fixed", pool, want, muts, mutArr, phase)
	res.tally(untraced.stream)

	var ms0, ms1 runtime.MemStats
	pool0, ing0, store0 := poolTotals(timed.c), timed.c.IngestStats(), timed.store.snap()
	runtime.ReadMemStats(&ms0)
	traced := replayInproc(ctx, timed, rc, "fixed", pool, want, muts, mutArr, phase)
	runtime.ReadMemStats(&ms1)
	pool1, ing1, store1 := poolTotals(timed.c), timed.c.IngestStats(), timed.store.snap()
	res.tally(traced.stream)
	logf("in-process replays done: %d untraced, %d traced queries, %d traced mutations", len(untraced.queries), len(traced.queries), len(traced.mutations))

	nq := float64(len(traced.queries))
	ops64 := nq + float64(len(traced.mutations))

	// xqserve
	var overhead []float64
	for _, r := range recs {
		overhead = append(overhead, float64(r.http-r.inproc)/1e6)
	}
	res.add("xqserve.overhead_ms", median(overhead), "ms")
	res.add("xqserve.response_bytes", ratio(float64(respBytes.Load()), float64(servedOK+servedFailed)), "bytes")

	// corpus
	gatherShare := map[string]float64{}
	{
		byShape := map[string][2][]float64{}
		for _, r := range recs {
			v := byShape[r.shape]
			v[0] = append(v[0], float64(r.countOnly))
			v[1] = append(v[1], float64(r.materialise))
			byShape[r.shape] = v
		}
		for s, v := range byShape {
			gatherShare[s] = max(0, 1-ratio(median(v[0]), median(v[1])))
		}
	}
	var gather, runMs, optUs []float64
	plans := 0.0
	for _, r := range recs {
		gather = append(gather, float64(r.materialise-r.countOnly)/1e6)
		runMs = append(runMs, float64(r.countOnly)/1e6)
		optUs = append(optUs, float64(r.optimize)/1e3)
		plans += float64(r.plans)
	}
	rows := 0.0
	var ex sjos.ExecStats
	for _, q := range traced.queries {
		rows += float64(q.count)
		ex.ScannedTuples += q.exec.ScannedTuples
		ex.SkippedTuples += q.exec.SkippedTuples
		ex.ValueProbes += q.exec.ValueProbes
		ex.Batches += q.exec.Batches
	}
	res.add("corpus.gather_ms", median(gather), "ms")
	res.add("corpus.rows_per_query", ratio(rows, nq), "count")
	res.add("corpus.alloc_mb_per_query", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), ops64), "MiB")
	res.add("corpus.allocs_per_query", ratio(float64(ms1.Mallocs-ms0.Mallocs), ops64), "count")
	res.add("runtime.gc_cycles_per_query", ratio(float64(ms1.NumGC-ms0.NumGC), ops64), "count")

	// exec
	res.add("exec.run_ms_p50", quantile(runMs, 0.5), "ms")
	res.add("exec.run_ms_p95", quantile(runMs, 0.95), "ms")
	res.add("exec.scanned_tuples", ratio(float64(ex.ScannedTuples), nq), "count")
	res.add("exec.skipped_tuples", ratio(float64(ex.SkippedTuples), nq), "count")
	res.add("exec.value_probes", ratio(float64(ex.ValueProbes), nq), "count")
	res.add("exec.batches", ratio(float64(ex.Batches), nq), "count")

	// pattern
	var parseUs []float64
	for _, q := range traced.queries {
		parseUs = append(parseUs, float64(q.parse)/1e3)
	}
	res.add("pattern.parse_us", median(parseUs), "us")

	// plancache, from the served run's /metrics.
	d := func(name string) float64 { return m1["sjos_"+name] - m0["sjos_"+name] }
	hits, misses := d("plancache_hits_total"), d("plancache_misses_total")
	res.add("plancache.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.add("plancache.evictions_per_query", ratio(d("plancache_evictions_total"), float64(servedOK+servedFailed)), "count")
	res.add("plancache.misses_per_commit", ratio(misses, float64(commits)), "count")

	// core
	res.add("core.optimize_us_p50", quantile(optUs, 0.5), "us")
	res.add("core.optimize_us_p95", quantile(optUs, 0.95), "us")
	res.add("core.plans_considered", ratio(plans, float64(len(recs))), "count")

	// storage
	ph, pm := float64(pool1.Hits-pool0.Hits), float64(pool1.Misses-pool0.Misses)
	sd := store1.sub(store0)
	res.add("storage.pool_hit_ratio", ratio(ph, ph+pm), "ratio")
	res.add("storage.page_reads_per_query", ratio(float64(sd.reads), nq), "count")
	res.add("storage.page_read_us", ratio(float64(sd.readNs)/1e3, float64(sd.reads)), "us")

	// ingest and wal
	commitMs := map[string][]float64{}
	var selfMs, compMs []float64
	var wsum ioSnap
	docBytes := 0
	for _, m := range traced.mutations {
		commitMs[m.op] = append(commitMs[m.op], float64(m.commit)/1e6)
		selfMs = append(selfMs, float64(m.commit-time.Duration(m.wal.writeNs+m.wal.syncNs))/1e6)
		if m.compacted {
			compMs = append(compMs, float64(m.commit)/1e6)
		}
		wsum.writes += m.wal.writes
		wsum.syncs += m.wal.syncs
		wsum.writeNs += m.wal.writeNs
		wsum.syncNs += m.wal.syncNs
		wsum.writeBytes += m.wal.writeBytes
		docBytes += m.docBytes
	}
	for _, op := range []string{"insert", "replace", "delete"} {
		res.add("ingest."+op+"_ms_p50", quantile(commitMs[op], 0.5), "ms")
		res.add("ingest."+op+"_ms_p95", quantile(commitMs[op], 0.95), "ms")
	}
	nm := float64(len(traced.mutations))
	res.add("ingest.self_ms", median(selfMs), "ms")
	res.add("ingest.compaction_commit_ms", median(compMs), "ms")
	res.add("ingest.compactions", float64(ing1.Compactions-ing0.Compactions), "count")
	res.add("wal.write_ms", ratio(float64(wsum.writeNs)/1e6, nm), "ms")
	res.add("wal.sync_ms", ratio(float64(wsum.syncNs)/1e6, nm), "ms")
	res.add("wal.syncs_per_commit", ratio(float64(wsum.syncs), nm), "count")
	res.add("wal.pages_per_commit", ratio(float64(wsum.writes), nm), "count")
	res.add("wal.bytes_per_doc_byte", ratio(float64(wsum.writeBytes), float64(docBytes)), "ratio")

	// loadgen, from the served run.
	var waits, lates []float64
	for _, s := range served.samples {
		if s.dispatched {
			waits = append(waits, float64(s.wait)/1e6)
			lates = append(lates, float64(s.late)/1e6)
		}
	}
	res.add("loadgen.queue_wait_ms_p95", quantile(waits, 0.95), "ms")
	res.add("loadgen.late_ms_p95", quantile(lates, 0.95), "ms")
	res.add("loadgen.failed_share", ratio(float64(servedFailed), float64(servedOK+servedFailed)), "ratio")

	// Self time per layer, as shares of the traced in-process request time.
	var total, parse, cacheT, coreT, execT, gatherT, unexplained float64
	for _, q := range traced.queries {
		total += float64(q.total)
		parse += float64(q.parse)
		if q.cached {
			cacheT += float64(q.opt)
		} else {
			coreT += float64(q.opt)
		}
		g := gatherShare[pool[q.op].shape]
		execT += float64(q.exe) * (1 - g)
		gatherT += float64(q.exe) * g
		unexplained += float64(q.total - q.parse - q.opt - q.exe)
	}
	storageT := min(float64(sd.readNs), execT)
	execT -= storageT
	res.add("pattern.self_pct", 100*ratio(parse, total), "%")
	res.add("plancache.self_pct", 100*ratio(cacheT, total), "%")
	res.add("core.self_pct", 100*ratio(coreT, total), "%")
	res.add("exec.self_pct", 100*ratio(execT, total), "%")
	res.add("corpus.self_pct", 100*ratio(gatherT, total), "%")
	res.add("storage.self_pct", 100*ratio(storageT, total), "%")
	var commitT float64
	for _, m := range traced.mutations {
		commitT += float64(m.commit)
	}
	res.add("ingest.self_pct", 100*ratio(commitT-float64(wsum.writeNs+wsum.syncNs), commitT), "%")
	res.add("wal.self_pct", 100*ratio(float64(wsum.writeNs+wsum.syncNs), commitT), "%")

	// trace health
	var tr, un []float64
	for _, q := range traced.queries {
		tr = append(tr, float64(q.total)/1e6)
	}
	for _, q := range untraced.queries {
		un = append(un, float64(q.total)/1e6)
	}
	res.add("trace.overhead_pct", 100*ratio(median(tr)-median(un), median(un)), "%")
	unPct := 100 * ratio(unexplained, total)
	res.add("trace.unexplained_pct", unPct, "%")
	if unPct > reconcileTolerancePct || unPct < -reconcileTolerancePct {
		res.gateFail(fmt.Errorf("trace does not reconcile: %.2f%% of in-process request time is outside the parse, optimize and execute spans (tolerance %.0f%%)", unPct, reconcileTolerancePct))
	}
	if err := writeSpans(rc, traced); err != nil {
		return nil, err
	}
	return res, nil
}

// poolTotals sums the buffer-pool counters of every shard.
func poolTotals(c *sjos.Corpus) sjos.PoolStats {
	var t sjos.PoolStats
	for _, h := range c.Health() {
		t.Hits += h.Pool.Hits
		t.Misses += h.Pool.Misses
	}
	return t
}

// writeSpans writes the traced replay's query spans, one JSON object per
// line, to trace-<workload>-<seed>.jsonl beside the run directory.
func writeSpans(rc runConfig, rp replay) error {
	path := filepath.Join(filepath.Dir(rc.dir), fmt.Sprintf("trace-%s-%d.jsonl", rc.w.name, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, q := range rp.queries {
		root := span{Req: i, Name: "request", End: int64(q.total), Parent: -1}
		opt := "core.optimize"
		if q.cached {
			opt = "plancache.lookup"
		}
		for _, s := range []span{
			root,
			{i, "pattern.parse", 0, int64(q.parse), 0},
			{i, "corpus.query", int64(q.parse), int64(q.parse + q.run), 0},
			{i, opt, int64(q.parse), int64(q.parse + q.opt), 2},
			{i, "corpus.execute", int64(q.parse + q.run - q.exe), int64(q.parse + q.run), 2},
		} {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
