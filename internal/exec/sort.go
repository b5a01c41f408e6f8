package exec

import (
	"sort"
)

// Sort is the blocking re-order operator: it materialises its entire input,
// sorts it by the document start position of one pattern node's column, and
// then streams the result. It is the only blocking operator, so plans
// without Sort nodes are fully pipelined.
type Sort struct {
	input  Operator
	by     int // pattern node to order by
	col    int
	schema *Schema

	buf    []Tuple
	pos    int
	loaded bool
	err    error // latched load failure: every later NextBatch returns it
	ctx    *Context
}

// NewSort builds a sort of input by pattern node u.
func NewSort(input Operator, u int) (*Sort, error) {
	col, ok := input.Schema().Col(u)
	if !ok {
		return nil, errColumn(u)
	}
	return &Sort{input: input, by: u, col: col, schema: input.Schema()}, nil
}

// Schema implements Operator.
func (s *Sort) Schema() *Schema { return s.schema }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	s.ctx = ctx
	return s.input.Open(ctx)
}

// NextBatch implements Operator: the input is materialised one batch at a
// time, and the sorted buffer is then served in batch-sized runs.
func (s *Sort) NextBatch(b *Batch) error {
	b.Reset()
	if s.err != nil {
		return s.err
	}
	if !s.loaded {
		if err := s.load(); err != nil {
			// Latch the failure: a partially-loaded buffer is not valid
			// output, so every later NextBatch must keep failing instead
			// of serving the unsorted remnant.
			s.err = err
			s.buf = nil
			return err
		}
	}
	for s.pos < len(s.buf) && !b.Full() {
		b.AppendRow(s.buf[s.pos])
		s.pos++
	}
	return nil
}

// load materialises the whole input; batch rows are ephemeral, so retained
// tuples are copied into an arena.
func (s *Sort) load() error {
	s.loaded = true
	in := NewBatch(s.schema.Width())
	var arena nodeArena
	for {
		if err := s.input.NextBatch(in); err != nil {
			return err
		}
		if in.Len() == 0 {
			break
		}
		for i := 0; i < in.Len(); i++ {
			s.buf = append(s.buf, arena.copyTuple(in.Row(i)))
		}
	}
	s.sortBuf()
	return nil
}

func (s *Sort) sortBuf() {
	s.ctx.Stats.SortedTuples += len(s.buf)
	doc := s.ctx.Doc
	col := s.col
	// Stable, so equal keys keep their upstream order — deterministic
	// output for result comparison across plans.
	sort.SliceStable(s.buf, func(i, j int) bool {
		return doc.Start(s.buf[i][col]) < doc.Start(s.buf[j][col])
	})
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.buf = nil
	return s.input.Close()
}
