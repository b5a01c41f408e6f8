// Package exec is the physical query executor: a vectorized Volcano-style
// iterator interpreter for the plans of internal/plan, over the stores of
// internal/storage. Operators exchange batches of up to BatchRows tuples.
//
// It implements the operator set the paper's plans are made of:
//
//   - IndexScan — candidate retrieval for one pattern node through the
//     element-tag index (with value predicates applied on the fly),
//   - Stack-Tree-Desc and Stack-Tree-Anc structural joins (Al-Khalifa et
//     al., ICDE 2002), generalised from node lists to tuple streams the way
//     Timber evaluates multi-edge patterns: each input is a stream of
//     partial matches ordered by the document position of its join column,
//   - Sort — the only blocking operator; it materialises its input.
//
// Fully-pipelined plans therefore genuinely stream: the first result tuple
// is produced before the inputs are exhausted, and no intermediate result
// is ever materialised.
package exec

import (
	"context"
	"fmt"

	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// Tuple is one partial match: a vector of document nodes. Which pattern
// node each slot binds is described by the operator's Schema. Tuples
// returned by Drain are immutable and may be retained by the caller; rows
// of a Batch are views that stay valid only until the batch is refilled.
type Tuple []xmltree.NodeID

// Schema maps pattern nodes to tuple slots.
type Schema struct {
	cols []int       // slot -> pattern node
	pos  map[int]int // pattern node -> slot
}

// NewSchema builds a schema with the given pattern-node-per-slot layout.
func NewSchema(cols ...int) *Schema {
	s := &Schema{cols: cols, pos: make(map[int]int, len(cols))}
	for i, c := range cols {
		s.pos[c] = i
	}
	return s
}

// Concat returns the schema of a join output: left slots then right slots.
func (s *Schema) Concat(t *Schema) *Schema {
	return NewSchema(append(append([]int{}, s.cols...), t.cols...)...)
}

// Width returns the number of slots.
func (s *Schema) Width() int { return len(s.cols) }

// Col returns the slot holding the given pattern node.
func (s *Schema) Col(patternNode int) (int, bool) {
	c, ok := s.pos[patternNode]
	return c, ok
}

// Cols returns the slot layout (pattern node per slot). Callers must not
// modify the returned slice.
func (s *Schema) Cols() []int { return s.cols }

// Stats counts the physical work done during one execution; each counter
// corresponds to a term of the paper's cost model.
type Stats struct {
	ScannedTuples int // index-scan outputs (f_I term)
	StackOps      int // pushes + pops in Stack-Tree joins (f_st term)
	BufferedPairs int // pairs written to Anc self/inherit lists (f_IO term)
	SortedTuples  int // tuples materialised by Sort operators (f_s term)
	OutputTuples  int // tuples produced by the plan root
	Batches       int // non-empty root-level NextBatch results
	SkippedTuples int // index postings bypassed by skip-ahead seeks
	ValueProbes   int // value-index probes opened (predicate pushdown leaves)
}

// Add accumulates o's counters into s. The partition-parallel driver uses
// it to merge per-worker statistics into the shared totals; because the
// partitions tile the document, the merged counters are comparable to a
// serial execution's.
func (s *Stats) Add(o Stats) {
	s.ScannedTuples += o.ScannedTuples
	s.StackOps += o.StackOps
	s.BufferedPairs += o.BufferedPairs
	s.SortedTuples += o.SortedTuples
	s.OutputTuples += o.OutputTuples
	s.Batches += o.Batches
	s.SkippedTuples += o.SkippedTuples
	s.ValueProbes += o.ValueProbes
}

// Context carries the execution environment shared by all operators of one
// plan.
type Context struct {
	Doc   *xmltree.Document
	Store *storage.Store
	Stats Stats

	// Ctx, when non-nil, is threaded into the store's page reads so a
	// cancelled query aborts I/O waits (including buffer-pool retry
	// backoffs) instead of only being noticed at the next Interrupt poll.
	Ctx context.Context

	// Range, when non-nil, restricts every IndexScan to candidates whose
	// Start position lies in [Range.Lo, Range.Hi). The partition-parallel
	// driver runs one plan clone per disjoint range; nil (the default)
	// scans the whole document.
	Range *storage.Range

	// Interrupt, when non-nil, is polled periodically by long-running
	// operators; a non-nil result aborts the execution with that error.
	// The parallel driver points it at the worker context's Err so
	// cancelled queries stop scanning promptly.
	Interrupt func() error
}

// Operator is the vectorized Volcano iterator contract. Usage: Open,
// repeated NextBatch until it returns an empty batch, Close. Operators are
// single-use.
type Operator interface {
	// Schema describes the operator's output layout; valid before Open.
	Schema() *Schema
	// Open prepares the operator (and its subtree) for iteration.
	Open(ctx *Context) error
	// NextBatch fills b with the next rows of the stream (after resetting
	// it); an empty batch marks the end of the stream. On error the
	// batch's contents are undefined.
	NextBatch(b *Batch) error
	// Close releases resources; must be called exactly once after Open.
	Close() error
}

// Drain runs op to completion, returning all output tuples. Rows are copied
// out of the reused batch into stable arena-backed tuples; ctx.Interrupt is
// polled once per batch.
func Drain(ctx *Context, op Operator) ([]Tuple, error) {
	var (
		out   []Tuple
		arena nodeArena
	)
	err := pull(ctx, op, func(b *Batch) {
		for i := 0; i < b.Len(); i++ {
			out = append(out, arena.copyTuple(b.Row(i)))
		}
	})
	if err != nil {
		return nil, err
	}
	ctx.Stats.OutputTuples = len(out)
	return out, nil
}

// Count runs op to completion, returning only the output cardinality; it
// never touches row contents, so counting costs one virtual call per batch.
func Count(ctx *Context, op Operator) (int, error) {
	n := 0
	if err := pull(ctx, op, func(b *Batch) { n += b.Len() }); err != nil {
		return 0, err
	}
	ctx.Stats.OutputTuples = n
	return n, nil
}

// pull is the root loop shared by Drain and Count: it opens op, hands
// every non-empty batch to consume, polls ctx.Interrupt between batches and
// closes op on every path.
func pull(ctx *Context, op Operator, consume func(*Batch)) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	b := NewBatch(op.Schema().Width())
	for {
		if ctx.Interrupt != nil {
			if err := ctx.Interrupt(); err != nil {
				op.Close()
				return err
			}
		}
		if err := op.NextBatch(b); err != nil {
			op.Close()
			return err
		}
		if b.Len() == 0 {
			break
		}
		ctx.Stats.Batches++
		consume(b)
	}
	return op.Close()
}

// errColumn builds the error for a pattern node missing from a schema; this
// indicates a malformed plan, which Build should have rejected.
func errColumn(patternNode int) error {
	return fmt.Errorf("exec: pattern node %d not present in input schema", patternNode)
}
