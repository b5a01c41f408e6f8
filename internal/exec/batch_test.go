package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// TestOracleRandomDocs is the executor's differential property against the
// brute-force oracle: on random documents large enough to span many
// batches (so reader refills and cross-batch skip-ahead run), both join
// algorithms on both axes, run serially and partition-parallel,
// materialised and counted, must return exactly ReferenceMatches.
func TestOracleRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tags := []string{"a", "b", "c"}
	pe := &ParallelExec{Workers: 2, Partitions: 3}
	for trial := 0; trial < 10; trial++ {
		doc := xmltree.RandomDocument(rng, 200+rng.Intn(4*BatchRows), tags)
		st, err := storage.BuildStore(doc, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ax := range []pattern.Axis{pattern.Child, pattern.Descendant} {
			for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
				a, b := tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))]
				src := "//" + a + "/" + b
				if ax == pattern.Descendant {
					src = "//" + a + "//" + b
				}
				pat := pattern.MustParse(src)
				p := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, ax, algo)
				want := ReferenceMatches(doc, pat)
				label := fmt.Sprintf("trial %d %s via %v", trial, src, algo)

				got, err := Run(&Context{Doc: doc, Store: st}, pat, p)
				if err != nil {
					t.Fatalf("%s serial: %v", label, err)
				}
				if !sortedEq(got, want) {
					t.Fatalf("%s serial: %d matches, reference %d", label, len(got), len(want))
				}
				n, err := RunCount(&Context{Doc: doc, Store: st}, pat, p)
				if err != nil || n != len(want) {
					t.Fatalf("%s serial count: %d (%v), reference %d", label, n, err, len(want))
				}
				pgot, err := pe.Run(context.Background(), &Context{Doc: doc, Store: st}, pat, p)
				if err != nil {
					t.Fatalf("%s parallel: %v", label, err)
				}
				if !sortedEq(pgot, want) {
					t.Fatalf("%s parallel: %d matches, reference %d", label, len(pgot), len(want))
				}
				pn, err := pe.RunCount(context.Background(), &Context{Doc: doc, Store: st}, pat, p)
				if err != nil || pn != len(want) {
					t.Fatalf("%s parallel count: %d (%v), reference %d", label, pn, err, len(want))
				}
			}
		}
	}
}

// TestBatchMultiJoinPipeline batches a join over join outputs (tuple
// streams), plus a Sort and a Limit on top — the full operator zoo in one
// batched tree.
func TestBatchMultiJoinPipeline(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	build := func() Operator {
		me, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, plan.AlgoAnc)
		if err != nil {
			t.Fatal(err)
		}
		men, err := NewStackTreeJoin(me, NewIndexScan(pat, 2), 0, 2, pattern.Descendant, plan.AlgoAnc)
		if err != nil {
			t.Fatal(err)
		}
		return men
	}
	op := build()
	got, err := Drain(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceMatches(doc, pat)
	if !sortedEq(NormalizeAll(op.Schema(), 3, got), want) {
		t.Fatalf("batched pipeline: got %d matches, want %d", len(got), len(want))
	}

	srt, err := NewSort(build(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := Drain(newCtx(t, doc), srt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(want) {
		t.Fatalf("batched sort: got %d rows, want %d", len(sorted), len(want))
	}
	col, _ := srt.Schema().Col(2)
	for i := 1; i < len(sorted); i++ {
		if doc.Start(sorted[i][col]) < doc.Start(sorted[i-1][col]) {
			t.Fatal("batched sort output out of order")
		}
	}

	for _, n := range []int{0, 1, 3, len(want), len(want) + 5} {
		lim, err := Drain(newCtx(t, doc), NewLimit(build(), n))
		if err != nil {
			t.Fatal(err)
		}
		wantN := n
		if wantN > len(want) {
			wantN = len(want)
		}
		if len(lim) != wantN {
			t.Fatalf("batched limit %d: got %d rows, want %d", n, len(lim), wantN)
		}
	}
}

// TestBatchLimitNotSeekable guards a deliberate hole in skip-ahead: a Limit
// must not be a Seeker, because seeking past rows the Limit has not counted
// would break its cap accounting.
func TestBatchLimitNotSeekable(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	var l Operator = NewLimit(NewIndexScan(pat, 0), 1)
	if _, ok := l.(Seeker); ok {
		t.Fatal("Limit implements Seeker; seeks would bypass the row cap")
	}
}

// TestTrySeekUnwrapsAdapters checks a skip-ahead seek reaches through the
// tracing wrapper to the scan it wraps, with the bypassed postings
// recorded, so traced execution skips exactly like untraced execution; a
// wrapper over an operator that cannot seek must report so.
func TestTrySeekUnwrapsAdapters(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	s := NewIndexScan(pat, 1)
	tr := &traced{inner: s, acc: &traceAcc{node: plan.NewIndexScan(1)}}
	if err := tr.Open(newCtx(t, doc)); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	nm, _ := doc.LookupTag("name")
	names := doc.NodesWithTag(nm)
	skipped, ok, err := tr.SeekGE(doc.Start(names[2]))
	if !ok || err != nil {
		t.Fatalf("SeekGE through traced: ok=%v err=%v, want seekable", ok, err)
	}
	if skipped != 2 || tr.skipped != 2 {
		t.Fatalf("skipped %d (traced records %d), want 2", skipped, tr.skipped)
	}
	var unseekable Operator = &traced{inner: NewLimit(s, 1)}
	if _, ok, _ := unseekable.(Seeker).SeekGE(0); ok {
		t.Fatal("traced reported a seek on an operator that cannot seek")
	}
}

// TestIndexScanSkipAhead seeks a scan past a dead region and checks the
// skipped postings are counted and the remaining stream is intact.
func TestIndexScanSkipAhead(t *testing.T) {
	// 40 b leaves, then an a subtree holding 2 more bs: a seek to the a's
	// Start position must bypass the 40 dead bs.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 40; i++ {
		sb.WriteString("<b></b>")
	}
	sb.WriteString("<a><b></b><c><b></b></c></a></r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.MustParse("//a//b")
	ctx := newCtx(t, doc)
	s := NewIndexScan(pat, 1)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	aTag, _ := doc.LookupTag("a")
	aStart := doc.Start(doc.NodesWithTag(aTag)[0])
	skipped, ok, err := s.SeekGE(aStart)
	if err != nil || !ok {
		t.Fatalf("SeekGE: ok=%v err=%v", ok, err)
	}
	if skipped != 40 {
		t.Fatalf("SeekGE skipped %d postings, want 40", skipped)
	}
	if ctx.Stats.SkippedTuples != 40 {
		t.Fatalf("SkippedTuples = %d, want 40", ctx.Stats.SkippedTuples)
	}
	b := NewBatch(1)
	if err := s.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	rest := b.Len()
	for i := 0; i < rest; i++ {
		if doc.Start(b.Row(i)[0]) < aStart {
			t.Fatal("scan produced a row from the skipped region")
		}
	}
	if rest != 2 {
		t.Fatalf("post-seek scan produced %d rows, want 2", rest)
	}
}

// TestJoinSkipAheadEndToEnd drives the whole skip-ahead path: a sparse
// ancestor stream over a dense descendant stream must trigger seeks (counted
// in SkippedTuples) and still produce exactly the reference result.
func TestJoinSkipAheadEndToEnd(t *testing.T) {
	// Dead regions of bs between sparse as; only bs inside as match. Each
	// dead region is bigger than one Batch so the skip must reach the
	// storage layer rather than being absorbed by the reader's in-buffer
	// binary search.
	var sb strings.Builder
	sb.WriteString("<r>")
	for blk := 0; blk < 3; blk++ {
		for i := 0; i < BatchRows+200; i++ {
			sb.WriteString("<b></b>")
		}
		sb.WriteString("<a><b></b></a>")
	}
	sb.WriteString("</r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
		pat := pattern.MustParse("//a//b")
		j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, algo)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newCtx(t, doc)
		got, err := Drain(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceMatches(doc, pat)
		if !sortedEq(NormalizeAll(j.Schema(), 2, got), want) {
			t.Fatalf("%v: skip-ahead changed results: got %d, want %d", algo, len(got), len(want))
		}
		if ctx.Stats.SkippedTuples == 0 {
			t.Errorf("%v: no postings skipped on a workload built of dead regions", algo)
		}
		if ctx.Stats.Batches == 0 {
			t.Errorf("%v: Stats.Batches not counted", algo)
		}
	}
}

// TestAncReadyQueueReleasesSlots is the regression test for the ready-queue
// retention fix: consuming the queue must nil out served slots and reset the
// queue once drained, instead of re-slicing forward and pinning every served
// tuple in the backing array.
func TestAncReadyQueueReleasesSlots(t *testing.T) {
	j := &StackTreeJoin{}
	tuples := []Tuple{{1}, {2}, {3}}
	j.ready = append(j.ready, tuples...)
	for i, want := range tuples {
		got := j.popReady()
		if got[0] != want[0] {
			t.Fatalf("popReady #%d = %v, want %v", i, got, want)
		}
		if i < len(tuples)-1 {
			if j.ready[i] != nil {
				t.Fatalf("served slot %d still pins its tuple", i)
			}
			if j.readyHead != i+1 {
				t.Fatalf("readyHead = %d, want %d", j.readyHead, i+1)
			}
		}
	}
	if len(j.ready) != 0 || j.readyHead != 0 {
		t.Fatalf("drained queue not reset: len=%d head=%d", len(j.ready), j.readyHead)
	}
	// The reset queue must be reusable in place.
	j.ready = append(j.ready, Tuple{4})
	if got := j.popReady(); got[0] != 4 {
		t.Fatalf("reused queue served %v, want [4]", got)
	}
}

// TestIndexScanBatchedInterrupt checks cancellation reaches a long scan
// on its own: the scan polls ctx.Interrupt before every posting block, so a
// scan spanning many batches is polled once per block and stops with the
// interrupt's error instead of reading on.
func TestIndexScanBatchedInterrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := xmltree.RandomDocument(rng, 9000, []string{"a"})
	pat := pattern.MustParse("//a//a")
	ctx := newCtx(t, doc)
	polls := 0
	ctx.Interrupt = func() error { polls++; return nil }
	n, err := Count(ctx, NewIndexScan(pat, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 9000 || ctx.Stats.Batches < n/BatchRows {
		t.Fatalf("scanned %d rows in %d batches", n, ctx.Stats.Batches)
	}
	// Count polls once per root batch; the scan adds its own polls.
	if polls <= ctx.Stats.Batches {
		t.Fatalf("interrupt polled %d times over %d batches; the scan never polled", polls, ctx.Stats.Batches)
	}

	errStop := errors.New("stop")
	ctx = newCtx(t, doc)
	s := NewIndexScan(pat, 0)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := NewBatch(1)
	if err := s.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	ctx.Interrupt = func() error { return errStop }
	before := ctx.Stats.ScannedTuples
	if err := s.NextBatch(b); !errors.Is(err, errStop) {
		t.Fatalf("NextBatch after cancel: %v, want the interrupt's error", err)
	}
	if ctx.Stats.ScannedTuples != before {
		t.Fatalf("cancelled scan read %d more postings", ctx.Stats.ScannedTuples-before)
	}
}

// TestBatchAppendersAndTruncate unit-tests the Batch container itself.
func TestBatchAppendersAndTruncate(t *testing.T) {
	b := NewBatch(2)
	b.AppendRow(Tuple{1, 2})
	b.AppendPair(Tuple{3}, Tuple{4})
	if b.Len() != 2 || b.Width() != 2 {
		t.Fatalf("len=%d width=%d, want 2/2", b.Len(), b.Width())
	}
	if got := b.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row(1) = %v, want [3 4]", got)
	}
	b.Truncate(1)
	if b.Len() != 1 {
		t.Fatalf("after Truncate(1): len=%d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset left rows behind")
	}
	ids := NewBatch(1)
	ids.AppendID(9)
	ids.AppendIDs([]xmltree.NodeID{10, 11})
	if ids.Len() != 3 || ids.Row(2)[0] != 11 {
		t.Fatalf("ID appenders broken: len=%d", ids.Len())
	}
}

// TestBatchReaderSeekWithinBuffer checks the reader's binary search over
// buffered rows (the in-buffer half of seekGE).
func TestBatchReaderSeekWithinBuffer(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//name")
	s := NewIndexScan(pat, 0)
	ctx := newCtx(t, doc)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := newBatchReader(s)
	first, ok, err := r.next()
	if err != nil || !ok {
		t.Fatalf("empty name scan: ok=%v err=%v", ok, err)
	}
	// Seek to a position past the first few names: result must be the first
	// name at or after it, same as scanning forward.
	nmTag, _ := doc.LookupTag("name")
	names := doc.NodesWithTag(nmTag)
	if len(names) < 3 {
		t.Fatal("fixture too small")
	}
	target := doc.Start(names[2])
	got, ok, err := r.seekGE(target, doc, 0)
	if err != nil || !ok {
		t.Fatalf("seekGE: ok=%v err=%v", ok, err)
	}
	if doc.Start(got[0]) < target {
		t.Fatalf("seekGE returned a row before the target position")
	}
	if got[0] == first[0] {
		t.Fatal("seekGE did not advance")
	}
	// And fully past the end: stream must terminate cleanly.
	if _, ok, err := r.seekGE(xmltree.Pos(1<<30), doc, 0); ok || err != nil {
		t.Fatalf("seekGE past end: ok=%v err=%v, want end of stream", ok, err)
	}
}

// TestOracleBuiltPlans cross-checks complete built plans (via the
// optimizer-facing Build/Run path) against the brute-force reference on
// left-deep and branching shapes: serial and partition-parallel,
// materialised and counted.
func TestOracleBuiltPlans(t *testing.T) {
	doc := personnelDoc(t)
	cases := []struct {
		src string
		p   *plan.Node
	}{
		{"//manager//employee/name",
			plan.NewJoin(
				plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
				plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoDesc)},
		{"//manager[.//department]//name",
			plan.NewJoin(
				plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoAnc),
				plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoDesc)},
		{"//db//manager//employee",
			plan.NewJoin(
				plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
				plan.NewIndexScan(2), 1, 2, pattern.Descendant, plan.AlgoDesc)},
	}
	pe := &ParallelExec{Workers: 2, Partitions: 2}
	for _, tc := range cases {
		pat := pattern.MustParse(tc.src)
		if err := tc.p.Validate(pat, false); err != nil {
			t.Fatalf("%s: test plan invalid: %v", tc.src, err)
		}
		want := ReferenceMatches(doc, pat)
		got, err := Run(newCtx(t, doc), pat, tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		pgot, err := pe.Run(context.Background(), newCtx(t, doc), pat, tc.p)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.src, err)
		}
		if !sortedEq(got, want) || !sortedEq(pgot, want) {
			t.Fatalf("%s: serial %d, parallel %d, reference %d matches",
				tc.src, len(got), len(pgot), len(want))
		}
		n, err := RunCount(newCtx(t, doc), pat, tc.p)
		if err != nil {
			t.Fatalf("%s count: %v", tc.src, err)
		}
		pn, err := pe.RunCount(context.Background(), newCtx(t, doc), pat, tc.p)
		if err != nil {
			t.Fatalf("%s parallel count: %v", tc.src, err)
		}
		if n != len(want) || pn != len(want) {
			t.Fatalf("%s: Count = %d, parallel %d, want %d", tc.src, n, pn, len(want))
		}
	}
}
