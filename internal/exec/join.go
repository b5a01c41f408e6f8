package exec

import (
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// StackTreeJoin evaluates one pattern edge with the Stack-Tree family of
// merge joins (Al-Khalifa et al., ICDE 2002), generalised to tuple streams:
// the left input is a stream of partial matches ordered by the ancestor
// column, the right input a stream ordered by the descendant column. Both
// variants share the streaming skeleton; they differ in when joined pairs
// are emitted:
//
//   - Desc emits each right tuple's matches immediately (output ordered by
//     the descendant column) and never buffers output;
//   - Anc buffers pairs in per-stack-entry self/inherit lists and releases
//     them when the entry leaves an empty stack (output ordered by the
//     ancestor column). The buffering is what the cost model's
//     2·|AB|·f_IO term charges for.
//
// Both variants read their inputs through block readers and skip ahead:
// whenever the stack is empty and the next ancestor starts past the current
// descendant, every right tuple before that ancestor is provably dead, so
// the right input is seeked (Seeker) rather than drained.
type StackTreeJoin struct {
	algo    plan.Algo
	axis    pattern.Axis
	left    Operator
	right   Operator
	lCol    int // ancestor column in left schema
	rCol    int // descendant column in right schema
	schema  *Schema
	ctx     *Context
	doc     *xmltree.Document
	started bool

	// Streaming state.
	lTuple Tuple
	lOK    bool
	rTuple Tuple
	rOK    bool
	stack  []*stackEntry

	// Desc emission state: matches of the current right tuple. emitR is a
	// join-owned copy of that tuple, because the emission must survive
	// advancing the right reader (which may refill its batch).
	emit    []*stackEntry // stack snapshot (bottom..top) still to pair
	emitIdx int
	emitR   Tuple

	// Anc emission state: released output, consumed from readyHead. The
	// head index (instead of re-slicing ready forward) keeps the backing
	// array reusable and lets emitted slots be released immediately.
	ready     []Tuple
	readyHead int

	// Block readers over the inputs and an arena for tuples that outlive
	// their input batch (stack copies, Anc buffered pairs).
	lr, rr *batchReader
	arena  nodeArena
}

type stackEntry struct {
	t          xmltree.NodeID // the ancestor node (cached from the tuple)
	end        xmltree.Pos
	level      uint16
	tuple      Tuple
	selfList   []Tuple // Anc only
	inheritLst []Tuple // Anc only
}

// NewStackTreeJoin joins left (ordered by pattern node anc) with right
// (ordered by pattern node desc) on an edge with the given axis, using the
// chosen algorithm variant.
func NewStackTreeJoin(left, right Operator, anc, desc int, ax pattern.Axis, algo plan.Algo) (*StackTreeJoin, error) {
	lCol, ok := left.Schema().Col(anc)
	if !ok {
		return nil, errColumn(anc)
	}
	rCol, ok := right.Schema().Col(desc)
	if !ok {
		return nil, errColumn(desc)
	}
	return &StackTreeJoin{
		algo:   algo,
		axis:   ax,
		left:   left,
		right:  right,
		lCol:   lCol,
		rCol:   rCol,
		schema: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *StackTreeJoin) Schema() *Schema { return j.schema }

// Open implements Operator.
func (j *StackTreeJoin) Open(ctx *Context) error {
	j.ctx = ctx
	j.doc = ctx.Doc
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		j.left.Close()
		return err
	}
	return nil
}

// Close implements Operator.
func (j *StackTreeJoin) Close() error {
	err := j.left.Close()
	if err2 := j.right.Close(); err == nil {
		err = err2
	}
	return err
}

// NextBatch implements Operator: the Stack-Tree loops consume the inputs
// through block readers and produce whole batches, with skip-ahead over
// dead regions of the right input.
func (j *StackTreeJoin) NextBatch(b *Batch) error {
	b.Reset()
	if !j.started {
		j.started = true
		j.lr = newBatchReader(j.left)
		j.rr = newBatchReader(j.right)
		var err error
		if j.lTuple, j.lOK, err = j.lr.next(); err != nil {
			return err
		}
		if j.rTuple, j.rOK, err = j.rr.next(); err != nil {
			return err
		}
	}
	if j.algo == plan.AlgoDesc {
		return j.nextDesc(b)
	}
	return j.nextAnc(b)
}

// matches reports whether a stack entry satisfies the edge's axis with the
// current right node (all stack entries already contain it structurally).
func (j *StackTreeJoin) matches(e *stackEntry, dLevel uint16) bool {
	return j.axis == pattern.Descendant || e.level+1 == dLevel
}

// push moves the current left tuple onto the stack (after expiring dead
// entries) and advances the left input. The left tuple aliases the left
// reader's reusable batch, so the stack entry gets an arena copy.
func (j *StackTreeJoin) push(expireBefore xmltree.Pos, collect func(*stackEntry)) error {
	j.expire(expireBefore, collect)
	a := j.lTuple[j.lCol]
	j.stack = append(j.stack, &stackEntry{
		t:     a,
		end:   j.doc.End(a),
		level: j.doc.Level(a),
		tuple: j.arena.copyTuple(j.lTuple),
	})
	j.ctx.Stats.StackOps++
	var err error
	j.lTuple, j.lOK, err = j.lr.next()
	return err
}

// expire pops entries whose region ends before pos; collect (may be nil)
// observes each popped entry in top-to-bottom order.
func (j *StackTreeJoin) expire(pos xmltree.Pos, collect func(*stackEntry)) {
	for len(j.stack) > 0 {
		top := j.stack[len(j.stack)-1]
		if top.end >= pos {
			return
		}
		j.stack = j.stack[:len(j.stack)-1]
		j.ctx.Stats.StackOps++
		if collect != nil {
			collect(top)
		}
	}
}

// skipRight reports whether the right input can be seeked past a dead
// region, and does so: with an empty stack, every right tuple starting
// before the next ancestor's Start matches nothing (an ancestor always
// starts before its descendants), and with the left input exhausted on an
// empty stack the rest of the right input is dead outright.
func (j *StackTreeJoin) skipRight(dStart xmltree.Pos) (bool, error) {
	if len(j.stack) > 0 {
		return false, nil
	}
	if !j.lOK {
		j.rTuple, j.rOK = nil, false
		return true, nil
	}
	lStart := j.doc.Start(j.lTuple[j.lCol])
	if lStart <= dStart {
		// Equal Start cannot happen across distinct nodes; <= keeps the
		// guard strictly-progressing either way.
		return false, nil
	}
	var err error
	j.rTuple, j.rOK, err = j.rr.seekGE(lStart, j.doc, j.rCol)
	return true, err
}

// nextDesc runs the Stack-Tree-Desc join.
func (j *StackTreeJoin) nextDesc(b *Batch) error {
	doc := j.doc
	for {
		// Drain pending emissions for the current right tuple first.
		if j.emitIdx < len(j.emit) {
			dLevel := doc.Level(j.emitR[j.rCol])
			for j.emitIdx < len(j.emit) {
				if b.Full() {
					return nil
				}
				e := j.emit[j.emitIdx]
				j.emitIdx++
				if j.matches(e, dLevel) {
					b.AppendPair(e.tuple, j.emitR)
				}
			}
		}
		j.emit = j.emit[:0]

		if !j.rOK {
			return nil // no right input left: join is done
		}
		if b.Full() {
			return nil
		}
		dStart := doc.Start(j.rTuple[j.rCol])
		if j.lOK && doc.Start(j.lTuple[j.lCol]) < dStart {
			if err := j.push(doc.Start(j.lTuple[j.lCol]), nil); err != nil {
				return err
			}
			continue
		}
		if skipped, err := j.skipRight(dStart); err != nil {
			return err
		} else if skipped {
			continue
		}
		// Process the right tuple against the stack.
		j.expire(dStart, nil)
		if len(j.stack) > 0 {
			j.emitR = append(j.emitR[:0], j.rTuple...)
			j.emit = append(j.emit[:0], j.stack...)
			j.emitIdx = 0
		}
		var err error
		j.rTuple, j.rOK, err = j.rr.next()
		if err != nil {
			return err
		}
	}
}

// popReady serves the head of the ready queue and releases its slot; once
// the queue drains the backing array is reset for reuse, so neither it nor
// the emitted tuples stay pinned.
func (j *StackTreeJoin) popReady() Tuple {
	t := j.ready[j.readyHead]
	j.ready[j.readyHead] = nil
	j.readyHead++
	if j.readyHead == len(j.ready) {
		j.ready = j.ready[:0]
		j.readyHead = 0
	}
	return t
}

// nextAnc runs the Stack-Tree-Anc join.
func (j *StackTreeJoin) nextAnc(b *Batch) error {
	doc := j.doc
	for {
		if j.readyHead < len(j.ready) {
			for j.readyHead < len(j.ready) {
				if b.Full() {
					return nil
				}
				b.AppendRow(j.popReady())
			}
			continue
		}
		if !j.rOK {
			if len(j.stack) > 0 {
				for len(j.stack) > 0 {
					top := j.stack[len(j.stack)-1]
					j.stack = j.stack[:len(j.stack)-1]
					j.ctx.Stats.StackOps++
					j.release(top)
				}
				continue
			}
			return nil
		}
		if b.Full() {
			return nil
		}
		dStart := doc.Start(j.rTuple[j.rCol])
		if j.lOK && doc.Start(j.lTuple[j.lCol]) < dStart {
			if err := j.push(doc.Start(j.lTuple[j.lCol]), j.release); err != nil {
				return err
			}
			continue
		}
		if skipped, err := j.skipRight(dStart); err != nil {
			return err
		} else if skipped {
			continue
		}
		j.expire(dStart, j.release)
		dLevel := doc.Level(j.rTuple[j.rCol])
		for _, e := range j.stack {
			if j.matches(e, dLevel) {
				// Buffered pairs outlive the right reader's batch, so they
				// are built in the arena, not with per-pair allocations.
				e.selfList = append(e.selfList, j.arena.joined(e.tuple, j.rTuple))
				j.ctx.Stats.BufferedPairs++
			}
		}
		var err error
		j.rTuple, j.rOK, err = j.rr.next()
		if err != nil {
			return err
		}
	}
}

// release handles a popped entry in the Anc variant: if an enclosing entry
// remains on the stack, the popped entry's output must wait for it (its
// ancestor column starts earlier), so it is appended to that entry's
// inherit list; otherwise the output is final and moves to the ready queue.
func (j *StackTreeJoin) release(e *stackEntry) {
	out := e.selfList
	out = append(out, e.inheritLst...)
	if len(j.stack) > 0 {
		parent := j.stack[len(j.stack)-1]
		parent.inheritLst = append(parent.inheritLst, out...)
		return
	}
	j.ready = append(j.ready, out...)
}
