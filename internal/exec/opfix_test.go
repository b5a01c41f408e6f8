package exec

import (
	"errors"
	"testing"
)

// scriptedOp is a test operator: it serves a fixed tuple list, perBatch
// rows per NextBatch call, and can be scripted to fail at a given call. It
// records how often it was pulled and closed.
type scriptedOp struct {
	schema   *Schema
	tuples   []Tuple
	perBatch int
	failAt   int // NextBatch call (0-based) that errors; -1 = never

	pos    int
	nexts  int
	closes int
}

var errScripted = errors.New("scripted operator failure")

func newScriptedOp(tuples []Tuple, perBatch, failAt int) *scriptedOp {
	return &scriptedOp{schema: NewSchema(0), tuples: tuples, perBatch: perBatch, failAt: failAt}
}

func (s *scriptedOp) Schema() *Schema         { return s.schema }
func (s *scriptedOp) Open(ctx *Context) error { return nil }
func (s *scriptedOp) Close() error            { s.closes++; return nil }
func (s *scriptedOp) NextBatch(b *Batch) error {
	b.Reset()
	i := s.nexts
	s.nexts++
	if s.failAt >= 0 && i == s.failAt {
		return errScripted
	}
	for n := 0; n < s.perBatch && s.pos < len(s.tuples); n++ {
		b.AppendRow(s.tuples[s.pos])
		s.pos++
	}
	return nil
}

// pullBatch is one NextBatch call into a fresh batch.
func pullBatch(op Operator) (*Batch, error) {
	b := NewBatch(op.Schema().Width())
	return b, op.NextBatch(b)
}

// TestSortLatchesLoadError is the regression test for the mid-stream load
// failure: a Sort whose input errors part-way through must keep returning
// the error on every later NextBatch instead of serving the partial,
// unsorted buffer as if it were valid output.
func TestSortLatchesLoadError(t *testing.T) {
	doc := personnelDoc(t)
	in := newScriptedOp([]Tuple{{3}, {1}}, 1, 2) // two one-row batches, then error
	s, err := NewSort(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pullBatch(s); !errors.Is(err, errScripted) {
		t.Fatalf("first NextBatch: err=%v, want the load error", err)
	}
	// Without the latch the second call would serve the partial buffer.
	b, err := pullBatch(s)
	if !errors.Is(err, errScripted) || b.Len() != 0 {
		t.Fatalf("second NextBatch after failed load: %d rows, err=%v; want latched error", b.Len(), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitClosesUpstreamEarly verifies the doc's early-termination claim:
// the moment the n-th tuple is delivered, the upstream subtree is Closed —
// and not Closed a second time by Limit.Close. It covers a cap reached on a
// batch boundary and a cap inside a batch (which is truncated).
func TestLimitClosesUpstreamEarly(t *testing.T) {
	for _, perBatch := range []int{1, 3} {
		in := newScriptedOp([]Tuple{{1}, {2}, {3}}, perBatch, -1)
		l := NewLimit(in, 2)
		if err := l.Open(newCtx(t, personnelDoc(t))); err != nil {
			t.Fatal(err)
		}
		got := 0
		for got < 2 {
			b, err := pullBatch(l)
			if err != nil || b.Len() == 0 {
				t.Fatalf("perBatch %d: NextBatch after %d rows: %d rows, err=%v", perBatch, got, b.Len(), err)
			}
			got += b.Len()
		}
		if got != 2 {
			t.Fatalf("perBatch %d: Limit 2 delivered %d rows", perBatch, got)
		}
		if in.closes != 1 {
			t.Fatalf("perBatch %d: input closed %d times after the cap, want 1 (early close)", perBatch, in.closes)
		}
		// No more pulls after the cap.
		pulls := in.nexts
		if b, err := pullBatch(l); b.Len() != 0 || err != nil {
			t.Fatalf("perBatch %d: NextBatch past cap: %d rows, err=%v", perBatch, b.Len(), err)
		}
		if in.nexts != pulls {
			t.Fatalf("perBatch %d: Limit kept pulling upstream past the cap", perBatch)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if in.closes != 1 {
			t.Fatalf("perBatch %d: input closed %d times in total, want exactly 1", perBatch, in.closes)
		}
	}
}

// TestLimitExhaustedInputStopsPulling covers the short-input case: once the
// input reports end of stream, Limit must not pull it again.
func TestLimitExhaustedInputStopsPulling(t *testing.T) {
	in := newScriptedOp([]Tuple{{1}}, 1, -1)
	l := NewLimit(in, 5)
	if err := l.Open(newCtx(t, personnelDoc(t))); err != nil {
		t.Fatal(err)
	}
	if b, _ := pullBatch(l); b.Len() != 1 {
		t.Fatal("first tuple missing")
	}
	if b, _ := pullBatch(l); b.Len() != 0 {
		t.Fatal("unexpected tuple past end")
	}
	pulls := in.nexts
	if b, _ := pullBatch(l); b.Len() != 0 {
		t.Fatal("unexpected tuple past end")
	}
	if in.nexts != pulls {
		t.Fatal("Limit pulled an exhausted input again")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if in.closes != 1 {
		t.Fatalf("input closed %d times, want 1", in.closes)
	}
}

// TestLimitZero keeps the degenerate cap working: no output, no upstream
// pull, exactly one upstream Close (via Limit.Close).
func TestLimitZero(t *testing.T) {
	in := newScriptedOp([]Tuple{{1}}, 1, -1)
	l := NewLimit(in, 0)
	if err := l.Open(newCtx(t, personnelDoc(t))); err != nil {
		t.Fatal(err)
	}
	if b, err := pullBatch(l); b.Len() != 0 || err != nil {
		t.Fatalf("NextBatch on zero limit: %d rows, err=%v", b.Len(), err)
	}
	if in.nexts != 0 {
		t.Fatalf("zero limit pulled its input %d times", in.nexts)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if in.closes != 1 {
		t.Fatalf("input closed %d times, want 1", in.closes)
	}
}
