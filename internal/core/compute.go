package core

import "sam/internal/token"

// ArrayLoad is the load mode of the array block (paper Definition 3.5): for
// every reference token it fetches the value stored at that location and
// emits it on a value stream; control tokens pass through, and the empty
// token N passes through so downstream ALUs can treat it as zero.
type ArrayLoad struct {
	basic
	vals []float64
	in   *Queue
	out  *Out
}

// NewArrayLoad builds a value-array load block over the backing value array.
func NewArrayLoad(name string, vals []float64, in *Queue, out *Out) *ArrayLoad {
	return &ArrayLoad{basic: basic{name: name}, vals: vals, in: in, out: out}
}

// Tick implements Block: a span of one cycle.
func (b *ArrayLoad) Tick() bool { return tick(b, b.in.clk) }

// span implements spanner: one token a cycle, from the cycle each turns
// visible.
func (b *ArrayLoad) span(end uint32) (stop, prog uint32) {
	clk := b.in.clk
	now := clk.now
	if b.done {
		return now, 0
	}
	if !b.out.CanPush() {
		return end, 0
	}
	for now < end {
		s := b.in.headSlot()
		if s == nil || s.at >= end {
			return end, prog
		}
		now = max(now, s.at)
		clk.now = now
		t := s.tok()
		b.in.PopPeeked()
		switch t.Kind {
		case token.Val:
			if t.N < 0 || t.N >= int64(len(b.vals)) {
				b.fail("reference %d out of range [0,%d)", t.N, len(b.vals))
				return now, prog
			}
			b.out.Push(token.V(b.vals[t.N]))
		case token.Empty:
			b.out.Push(token.N())
		case token.Stop:
			b.out.Push(t)
		case token.Done:
			b.out.Push(t)
			b.done = true
		}
		now++
		prog = now
		if b.done {
			break
		}
	}
	return now, prog
}

// ALUOp selects the arithmetic operation of an ALU block.
type ALUOp uint8

// The ALU operations of paper Definition 3.6.
const (
	OpMul ALUOp = iota
	OpAdd
	OpSub
	OpMax
	OpMin
)

func (op ALUOp) String() string {
	switch op {
	case OpMul:
		return "mul"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return "op?"
}

// Apply computes the operation on two operands.
func (op ALUOp) Apply(a, b float64) float64 {
	switch op {
	case OpMul:
		return a * b
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	return 0
}

// ALU consumes two shape-aligned value streams and emits one (paper
// Definition 3.6). Empty tokens are treated as zeros; if both operands are
// empty the result stays empty, preserving sparsity through additions.
type ALU struct {
	basic
	op  ALUOp
	inA *Queue
	inB *Queue
	out *Out
}

// NewALU builds an ALU block.
func NewALU(name string, op ALUOp, inA, inB *Queue, out *Out) *ALU {
	return &ALU{basic: basic{name: name}, op: op, inA: inA, inB: inB, out: out}
}

// Tick implements Block: a span of one cycle.
func (b *ALU) Tick() bool { return tick(b, b.inA.clk) }

// span implements spanner: a cycle needs both heads, so the block runs from
// the cycle both turn visible.
func (b *ALU) span(end uint32) (stop, prog uint32) {
	clk := b.inA.clk
	now := clk.now
	if b.done {
		return now, 0
	}
	if !b.out.CanPush() {
		return end, 0
	}
	for now < end {
		sa, sb := b.inA.headSlot(), b.inB.headSlot()
		if sa == nil || sb == nil || sa.at >= end || sb.at >= end {
			return end, prog
		}
		now = max(now, sa.at, sb.at)
		clk.now = now
		if !b.apply(sa.tok(), sb.tok()) {
			return now, prog
		}
		now++
		prog = now
		if b.done {
			break
		}
	}
	return now, prog
}

// apply runs one cycle over the visible heads ta and tb and reports whether
// it made progress; it fails otherwise.
func (b *ALU) apply(ta, tb token.Tok) bool {
	dataA := ta.IsVal() || ta.IsEmpty()
	dataB := tb.IsVal() || tb.IsEmpty()
	switch {
	case dataA && dataB:
		b.inA.PopPeeked()
		b.inB.PopPeeked()
		if ta.IsEmpty() && tb.IsEmpty() {
			b.out.Push(token.N())
			return true
		}
		va, vb := 0.0, 0.0
		if ta.IsVal() {
			va = ta.V
		}
		if tb.IsVal() {
			vb = tb.V
		}
		b.out.Push(token.V(b.op.Apply(va, vb)))
		return true
	case ta.IsStop() && tb.IsStop():
		if ta.StopLevel() != tb.StopLevel() {
			return b.fail("misaligned stops S%d vs S%d", ta.StopLevel(), tb.StopLevel())
		}
		b.inA.PopPeeked()
		b.inB.PopPeeked()
		b.out.Push(ta)
		return true
	case dataA && !ta.IsEmpty() && ta.V == 0 && (tb.IsStop() || tb.IsDone()):
		// An orphan zero: a scalar reduction of a structurally empty group
		// (a parallel lane that received no fibers) emitted an explicit zero
		// the other operand has no counterpart for. Discard it, like the
		// droppers and reducers do.
		b.inA.PopPeeked()
		return true
	case dataB && !tb.IsEmpty() && tb.V == 0 && (ta.IsStop() || ta.IsDone()):
		b.inB.PopPeeked()
		return true
	case ta.IsDone() && tb.IsDone():
		b.inA.PopPeeked()
		b.inB.PopPeeked()
		b.out.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("misaligned operands %v vs %v", ta, tb)
}

// ScalarReducer is the n=0 reducer (paper Definition 3.7): it sums every
// value within each innermost (S0-delimited) group, emits one value per
// group, and lowers every stop token by one level. Empty groups emit an
// explicit zero (the paper's accumulate-into-explicit-zero configuration);
// coordinate droppers downstream remove the zeros when required.
type ScalarReducer struct {
	basic
	in  *Queue
	out *Out

	acc         float64
	pendingStop int // stop level to emit next cycle; -1 if none
}

// NewScalarReducer builds a scalar reducer.
func NewScalarReducer(name string, in *Queue, out *Out) *ScalarReducer {
	return &ScalarReducer{basic: basic{name: name}, in: in, out: out, pendingStop: -1}
}

// Tick implements Block: a span of one cycle.
func (b *ScalarReducer) Tick() bool { return tick(b, b.in.clk) }

// span implements spanner: one input token a cycle, from the cycle each
// turns visible, and a lowered stop the cycle after the group's sum.
func (b *ScalarReducer) span(end uint32) (stop, prog uint32) {
	clk := b.in.clk
	now := clk.now
	if b.done {
		return now, 0
	}
	if !b.out.CanPush() {
		return end, 0
	}
	for now < end {
		if b.pendingStop >= 0 {
			clk.now = now
			b.out.Push(token.S(b.pendingStop))
			b.pendingStop = -1
			now++
			prog = now
			continue
		}
		s := b.in.headSlot()
		if s == nil || s.at >= end {
			return end, prog
		}
		now = max(now, s.at)
		clk.now = now
		t := s.tok()
		b.in.PopPeeked()
		switch t.Kind {
		case token.Val:
			b.acc += t.V
		case token.Stop:
			b.out.Push(token.V(b.acc))
			b.acc = 0
			if t.StopLevel() >= 1 {
				b.pendingStop = t.StopLevel() - 1
			}
		case token.Done:
			b.out.Push(token.D())
			b.done = true
		}
		now++
		prog = now
		if b.done {
			break
		}
	}
	return now, prog
}

// InQueues implements Block.
func (b *ArrayLoad) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *ArrayLoad) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Block.
func (b *ALU) InQueues() []*Queue { return []*Queue{b.inA, b.inB} }

// OutPorts implements Block.
func (b *ALU) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Block.
func (b *ScalarReducer) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *ScalarReducer) OutPorts() []*Out { return []*Out{b.out} }
