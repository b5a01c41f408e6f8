package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

func TestTraceBuilderSerial(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	p := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	p.EstCard = 42
	tb, err := NewTraceBuilder(pat, p)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	tr := tb.Trace()
	if tr.Op != "STJ-Desc" {
		t.Fatalf("root op = %q", tr.Op)
	}
	if tr.Rows != int64(n) {
		t.Fatalf("root rows = %d, want %d", tr.Rows, n)
	}
	// One batch holds the whole result, plus the end-of-stream call.
	if tr.Batches != 2 {
		t.Fatalf("root batches = %d, want 2", tr.Batches)
	}
	if tr.Clones != 1 {
		t.Fatalf("root clones = %d, want 1", tr.Clones)
	}
	if tr.EstRows != 42 {
		t.Fatalf("root est = %v, want 42", tr.EstRows)
	}
	if len(tr.Children) != 2 {
		t.Fatalf("%d children, want 2", len(tr.Children))
	}
	mgr, _ := doc.LookupTag("manager")
	nm, _ := doc.LookupTag("name")
	if tr.Children[0].Rows != int64(doc.TagCount(mgr)) || tr.Children[1].Rows != int64(doc.TagCount(nm)) {
		t.Fatalf("leaf rows %d/%d, want %d/%d", tr.Children[0].Rows, tr.Children[1].Rows,
			doc.TagCount(mgr), doc.TagCount(nm))
	}
	for _, c := range tr.Children {
		if c.Op != "IndexScan" {
			t.Fatalf("child op = %q", c.Op)
		}
	}
	out := tr.Format()
	for _, want := range []string{"STJ-Desc", "IndexScan", "manager($0)", "name($1)", "est≈42", "actual=", "batches=", "time="} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestTraceBuilderMultipleClones simulates the partition-parallel driver:
// several clones built from one TraceBuilder accumulate into a single
// plan-shaped trace.
func TestTraceBuilderMultipleClones(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	p := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	tb, err := NewTraceBuilder(pat, p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 3; i++ {
		op, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		n, err := Count(newCtx(t, doc), op)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	tr := tb.Trace()
	if tr.Clones != 3 {
		t.Fatalf("clones = %d, want 3", tr.Clones)
	}
	if tr.Rows != int64(total) {
		t.Fatalf("rows = %d, want %d summed over clones", tr.Rows, total)
	}
}

func TestTraceBuilderMatchesPlainExecution(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	me := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoAnc)
	men := plan.NewJoin(me, plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoAnc)
	plain, err := RunCount(newCtx(t, doc), pat, men)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTraceBuilder(pat, men)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	if n != plain {
		t.Fatalf("traced count %d, plain %d", n, plain)
	}
	if tr := tb.Trace(); tr.Rows != int64(plain) {
		t.Fatalf("trace rows %d, want %d", tr.Rows, plain)
	}
}

func TestTraceBuilderRejectsBadPlans(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, err := NewTraceBuilder(pat, &plan.Node{Op: plan.Op(99)}); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestTracedFlushOnce(t *testing.T) {
	in := newScriptedOp([]Tuple{{1}, {2}}, 1, -1)
	acc := &traceAcc{node: plan.NewIndexScan(0)}
	tr := &traced{inner: in, acc: acc}
	if err := tr.Open(newCtx(t, personnelDoc(t))); err != nil {
		t.Fatal(err)
	}
	for {
		if b, err := pullBatch(tr); err != nil {
			t.Fatal(err)
		} else if b.Len() == 0 {
			break
		}
	}
	tr.Close()
	tr.Close() // double Close must not double-count
	if got := acc.rows.Load(); got != 2 {
		t.Fatalf("acc rows = %d, want 2", got)
	}
	if got := acc.batches.Load(); got != 3 {
		t.Fatalf("acc batches = %d, want 3 (two rows, one end of stream)", got)
	}
	if got := acc.clones.Load(); got != 1 {
		t.Fatalf("acc clones = %d, want 1", got)
	}
}

// TestBuildAnalyzedRejectsBadPlans checks that the instrumented builder
// behind EXPLAIN ANALYZE rejects malformed plans: an unknown operator when
// the builder is made, a scan of a pattern node the pattern does not have
// when a clone is built.
func TestBuildAnalyzedRejectsBadPlans(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, err := NewTraceBuilder(pat, &plan.Node{Op: plan.Op(99)}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	tb, err := NewTraceBuilder(pat, &plan.Node{Op: plan.OpIndexScan, PatternNode: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Build(); err == nil {
		t.Fatal("out-of-range scan accepted")
	}
}

// TestAnalyzedExecutionCountsActuals checks the actual counts EXPLAIN
// ANALYZE reports for every operator kind (scans, a Sort and both join
// algorithms): leaf rows equal the tag's posting count, the root's rows
// equal the result, and every operator that produced rows reports a
// non-zero NextBatch count — in the record and on its Format line.
func TestAnalyzedExecutionCountsActuals(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	me := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	p := plan.NewJoin(plan.NewSort(me, 0), plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoAnc)
	tb, err := NewTraceBuilder(pat, p)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	tr := tb.Trace()
	if tr.Rows != int64(n) || n != len(ReferenceMatches(doc, pat)) {
		t.Fatalf("root rows %d, count %d, reference %d", tr.Rows, n, len(ReferenceMatches(doc, pat)))
	}
	leaves := map[string]int64{}
	var walk func(*OpTrace)
	walk = func(o *OpTrace) {
		if o.Rows > 0 && o.Batches == 0 {
			t.Errorf("%s %s produced %d rows in 0 batches", o.Op, o.Detail, o.Rows)
		}
		if o.Op == "IndexScan" {
			leaves[o.Detail] = o.Rows
		}
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(tr)
	for u, tag := range []string{"manager", "employee", "name"} {
		id, _ := doc.LookupTag(tag)
		detail := fmt.Sprintf("%s($%d)", tag, u)
		if leaves[detail] != int64(doc.TagCount(id)) {
			t.Errorf("leaf %s actual %d, want %d", detail, leaves[detail], doc.TagCount(id))
		}
	}
	lines := strings.Split(strings.TrimSpace(tr.Format()), "\n")
	if len(lines) != 6 {
		t.Fatalf("Format rendered %d lines for a 6-operator plan:\n%s", len(lines), tr.Format())
	}
	for _, line := range lines {
		if strings.Contains(line, "actual=0 ") {
			continue
		}
		if !strings.Contains(line, "batches=") || strings.Contains(line, "batches=0 ") {
			t.Errorf("operator line reports no batches: %s", line)
		}
	}
}

// TestAnalyzedMatchesPlainExecution runs a traced plan through the
// partition-parallel executor, one traced clone per partition, and checks the
// merged trace against plain execution of the same plan.
func TestAnalyzedMatchesPlainExecution(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	me := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoAnc)
	men := plan.NewJoin(me, plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoAnc)
	plain, err := RunCount(newCtx(t, doc), pat, men)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTraceBuilder(pat, men)
	if err != nil {
		t.Fatal(err)
	}
	pe := &ParallelExec{Workers: 2, Partitions: 2, BuildOp: tb.Build}
	n, err := pe.RunCount(context.Background(), newCtx(t, doc), pat, men)
	if err != nil {
		t.Fatal(err)
	}
	tr := tb.Trace()
	if n != plain || tr.Rows != int64(plain) {
		t.Fatalf("traced parallel count %d (trace rows %d), plain %d", n, tr.Rows, plain)
	}
	if tr.Clones < 1 || tr.Batches < tr.Clones {
		t.Fatalf("root clones %d, batches %d: each clone must record its batches", tr.Clones, tr.Batches)
	}
}
