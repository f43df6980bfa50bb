package core

import (
	"math/bits"

	"sam/internal/fiber"
	"sam/internal/token"
)

// Bitvector blocks (paper Section 4.3). Bitvector streams carry b-bit words
// instead of individual coordinates; an n-bit word encoding n coordinates is
// processed in one cycle, and the value datapath is b-lane vectorized
// (Capstan-style), which is where the "implicit parallelism of bitvectors"
// in Figure 13 comes from.

// VecArena stores the packed vector-value payloads referenced by vector
// tokens. One arena is shared per simulation.
type VecArena struct {
	vecs [][fiber.WordBits]float64
}

// Alloc stores a vector and returns its token payload index.
func (a *VecArena) Alloc(v [fiber.WordBits]float64) int64 {
	a.vecs = append(a.vecs, v)
	return int64(len(a.vecs) - 1)
}

// At returns the vector stored at index i.
func (a *VecArena) At(i int64) *[fiber.WordBits]float64 { return &a.vecs[i] }

// BVScanner is the bitvector level scanner: like Definition 3.1 but the
// coordinate output carries one machine word per cycle and the reference
// output carries popcount base references (paper Section 4.3).
type BVScanner struct {
	basic
	lvl    *fiber.BitvectorLevel
	in     *Queue
	outBV  *Out
	outRef *Out

	scanning   bool
	fib        int
	pos, n     int
	sepPending bool
}

// NewBVScanner builds a bitvector level scanner.
func NewBVScanner(name string, lvl *fiber.BitvectorLevel, in *Queue, outBV, outRef *Out) *BVScanner {
	return &BVScanner{basic: basic{name: name}, lvl: lvl, in: in, outBV: outBV, outRef: outRef}
}

// Tick implements Block.
func (b *BVScanner) Tick() bool {
	if b.done {
		return false
	}
	if !b.outBV.CanPush() || !b.outRef.CanPush() {
		return false
	}
	if b.scanning {
		b.outBV.Push(token.BV(b.lvl.Word(b.fib, b.pos)))
		b.outRef.Push(token.C(b.lvl.WordBase(b.fib, b.pos)))
		b.pos++
		if b.pos == b.n {
			b.scanning = false
			b.sepPending = true
		}
		return true
	}
	t, ok := b.in.Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val, token.Empty:
		if b.sepPending {
			b.outBV.Push(token.S(0))
			b.outRef.Push(token.S(0))
			b.sepPending = false
			return true
		}
		b.in.Pop()
		if t.IsEmpty() {
			b.sepPending = true
			return true
		}
		b.fib = int(t.N)
		b.pos, b.n = 0, b.lvl.WordsPerFiber()
		if b.n == 0 {
			b.sepPending = true
			return true
		}
		b.scanning = true
		b.outBV.Push(token.BV(b.lvl.Word(b.fib, b.pos)))
		b.outRef.Push(token.C(b.lvl.WordBase(b.fib, b.pos)))
		b.pos++
		if b.pos == b.n {
			b.scanning = false
			b.sepPending = true
		}
		return true
	case token.Stop:
		b.in.Pop()
		b.sepPending = false
		b.outBV.Push(token.S(t.StopLevel() + 1))
		b.outRef.Push(token.S(t.StopLevel() + 1))
		return true
	case token.Done:
		if b.sepPending {
			b.outBV.Push(token.S(0))
			b.outRef.Push(token.S(0))
			b.sepPending = false
			return true
		}
		b.in.Pop()
		b.outBV.Push(token.D())
		b.outRef.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", t)
}

// BVIntersect ANDs two word-aligned bitvector streams, one word per cycle
// (paper Section 4.3). Besides the intersected words it forwards each side's
// original word and popcount base so downstream vector loads can rank set
// bits against the operand's own bitvector.
type BVIntersect struct {
	basic
	inBVA, inRefA      *Queue
	inBVB, inRefB      *Queue
	outBV              *Out
	outMaskA, outBaseA *Out
	outMaskB, outBaseB *Out
}

// NewBVIntersect builds a bitvector intersecter.
func NewBVIntersect(name string, inBVA, inRefA, inBVB, inRefB *Queue, outBV, outMaskA, outBaseA, outMaskB, outBaseB *Out) *BVIntersect {
	return &BVIntersect{
		basic: basic{name: name},
		inBVA: inBVA, inRefA: inRefA, inBVB: inBVB, inRefB: inRefB,
		outBV: outBV, outMaskA: outMaskA, outBaseA: outBaseA, outMaskB: outMaskB, outBaseB: outBaseB,
	}
}

func (b *BVIntersect) outs() []*Out {
	return []*Out{b.outBV, b.outMaskA, b.outBaseA, b.outMaskB, b.outBaseB}
}

// Tick implements Block.
func (b *BVIntersect) Tick() bool {
	if b.done {
		return false
	}
	for _, o := range b.outs() {
		if !o.CanPush() {
			return false
		}
	}
	ta, ok := b.inBVA.Peek()
	if !ok {
		return false
	}
	tb, ok := b.inBVB.Peek()
	if !ok {
		return false
	}
	switch {
	case ta.IsVal() && tb.IsVal():
		b.inBVA.Pop()
		ra, _ := b.inRefA.Pop()
		b.inBVB.Pop()
		rb, _ := b.inRefB.Pop()
		and := uint64(ta.N) & uint64(tb.N)
		b.outBV.Push(token.BV(and))
		b.outMaskA.Push(ta)
		b.outBaseA.Push(ra)
		b.outMaskB.Push(tb)
		b.outBaseB.Push(rb)
		return true
	case ta.IsStop() && tb.IsStop():
		if ta.StopLevel() != tb.StopLevel() {
			return b.fail("misaligned stops %v vs %v", ta, tb)
		}
		b.inBVA.Pop()
		b.inRefA.Pop()
		b.inBVB.Pop()
		b.inRefB.Pop()
		for _, o := range b.outs() {
			o.Push(ta)
		}
		return true
	case ta.IsDone() && tb.IsDone():
		b.inBVA.Pop()
		b.inRefA.Pop()
		b.inBVB.Pop()
		b.inRefB.Pop()
		for _, o := range b.outs() {
			o.Push(token.D())
		}
		b.done = true
		return true
	}
	return b.fail("misaligned bitvector inputs %v vs %v", ta, tb)
}

// VecLoad is the array block in vectorized mode: per cycle it loads the
// values of every set bit of the intersected word from the backing value
// array, ranking the bits against the operand's own bitvector word, and
// emits one packed vector token.
type VecLoad struct {
	basic
	vals   []float64
	arena  *VecArena
	inBV   *Queue // intersected words
	inMask *Queue // operand's original words
	inBase *Queue // operand's popcount bases
	out    *Out
}

// NewVecLoad builds a vectorized value load block.
func NewVecLoad(name string, vals []float64, arena *VecArena, inBV, inMask, inBase *Queue, out *Out) *VecLoad {
	return &VecLoad{basic: basic{name: name}, vals: vals, arena: arena, inBV: inBV, inMask: inMask, inBase: inBase, out: out}
}

// Tick implements Block.
func (b *VecLoad) Tick() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	t, ok := b.inBV.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		mask, _ := b.inMask.Pop()
		base, _ := b.inBase.Pop()
		var v [fiber.WordBits]float64
		and := uint64(t.N)
		orig := uint64(mask.N)
		for w := and; w != 0; w &= w - 1 {
			bit := bits.TrailingZeros64(w)
			rank := bits.OnesCount64(orig & ((1 << uint(bit)) - 1))
			v[bit] = b.vals[base.N+int64(rank)]
		}
		b.out.Push(token.Tok{Kind: token.Val, N: b.arena.Alloc(v)})
		return true
	case token.Stop, token.Done:
		b.inMask.Pop()
		b.inBase.Pop()
		b.out.Push(t)
		if t.IsDone() {
			b.done = true
		}
		return true
	}
	return b.fail("unexpected token %v", t)
}

// VecALU applies an arithmetic operation lane-wise to two packed vector
// streams, one word of lanes per cycle.
type VecALU struct {
	basic
	op    ALUOp
	arena *VecArena
	inA   *Queue
	inB   *Queue
	out   *Out
}

// NewVecALU builds a vectorized ALU.
func NewVecALU(name string, op ALUOp, arena *VecArena, inA, inB *Queue, out *Out) *VecALU {
	return &VecALU{basic: basic{name: name}, op: op, arena: arena, inA: inA, inB: inB, out: out}
}

// Tick implements Block.
func (b *VecALU) Tick() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	ta, ok := b.inA.Peek()
	if !ok {
		return false
	}
	tb, ok := b.inB.Peek()
	if !ok {
		return false
	}
	switch {
	case ta.IsVal() && tb.IsVal():
		b.inA.Pop()
		b.inB.Pop()
		va, vb := b.arena.At(ta.N), b.arena.At(tb.N)
		var out [fiber.WordBits]float64
		for i := range out {
			out[i] = b.op.Apply(va[i], vb[i])
		}
		b.out.Push(token.Tok{Kind: token.Val, N: b.arena.Alloc(out)})
		return true
	case ta.IsStop() && tb.IsStop() && ta.StopLevel() == tb.StopLevel():
		b.inA.Pop()
		b.inB.Pop()
		b.out.Push(ta)
		return true
	case ta.IsDone() && tb.IsDone():
		b.inA.Pop()
		b.inB.Pop()
		b.out.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("misaligned vector operands %v vs %v", ta, tb)
}

// BVExpand converts an intersected bitvector stream back to an element
// reference stream: for every set bit of each intersected word it emits the
// operand's child reference (base + rank), one reference per cycle. It is
// the glue between an outer bitvector level and inner per-chunk scanners in
// a bit-tree (paper Section 4.3, "BV w/ split").
type BVExpand struct {
	basic
	inBV   *Queue
	inMask *Queue
	inBase *Queue
	out    *Out

	word  uint64
	mask  uint64
	base  int64
	havew bool
}

// NewBVExpand builds a bitvector expander.
func NewBVExpand(name string, inBV, inMask, inBase *Queue, out *Out) *BVExpand {
	return &BVExpand{basic: basic{name: name}, inBV: inBV, inMask: inMask, inBase: inBase, out: out}
}

// Tick implements Block.
func (b *BVExpand) Tick() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	if b.havew {
		if b.word == 0 {
			b.havew = false
			return true
		}
		bit := bits.TrailingZeros64(b.word)
		rank := bits.OnesCount64(b.mask & ((1 << uint(bit)) - 1))
		b.out.Push(token.C(b.base + int64(rank)))
		b.word &= b.word - 1
		if b.word == 0 {
			b.havew = false
		}
		return true
	}
	t, ok := b.inBV.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		mask, _ := b.inMask.Pop()
		base, _ := b.inBase.Pop()
		b.word = uint64(t.N)
		b.mask = uint64(mask.N)
		b.base = base.N
		b.havew = b.word != 0
		return true
	case token.Stop, token.Done:
		b.inMask.Pop()
		b.inBase.Pop()
		b.out.Push(t)
		if t.IsDone() {
			b.done = true
		}
		return true
	}
	return b.fail("unexpected token %v", t)
}

// BVConvert is the bitvector converter of paper Definition 4.2: it packs a
// coordinate stream into bitvector words of WordBits coordinates each,
// emitting one word per cycle once a word's coordinate range is complete.
type BVConvert struct {
	basic
	in  *Queue
	out *Out
	dim int

	word    uint64
	wordIdx int64
	touched bool
	pending []token.Tok
}

// NewBVConvert builds a coordinate-to-bitvector converter for a level of the
// given dimension size.
func NewBVConvert(name string, dim int, in *Queue, out *Out) *BVConvert {
	return &BVConvert{basic: basic{name: name}, in: in, out: out, dim: dim}
}

// flushTo emits words up to the fiber end (dim/WordBits words per fiber).
func (b *BVConvert) flushFiber(tail token.Tok) {
	words := int64((b.dim + fiber.WordBits - 1) / fiber.WordBits)
	for b.wordIdx < words {
		b.pending = append(b.pending, token.BV(b.word))
		b.word = 0
		b.wordIdx++
	}
	b.pending = append(b.pending, tail)
	b.wordIdx = 0
	b.touched = false
}

// Tick implements Block.
func (b *BVConvert) Tick() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	if len(b.pending) > 0 {
		t := b.pending[0]
		b.pending = b.pending[1:]
		b.out.Push(t)
		if t.IsDone() {
			b.done = true
		}
		return true
	}
	t, ok := b.in.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		w := t.N / fiber.WordBits
		for b.wordIdx < w {
			b.pending = append(b.pending, token.BV(b.word))
			b.word = 0
			b.wordIdx++
		}
		b.word |= 1 << (uint(t.N) % fiber.WordBits)
		b.touched = true
		return true
	case token.Stop:
		b.flushFiber(t)
		return true
	case token.Done:
		b.pending = append(b.pending, t)
		return true
	}
	return b.fail("unexpected token %v", t)
}

// BVWriter writes a bitvector stream back to a bitvector level, plus a
// vectorized value writer companion for packed value streams.
type BVWriter struct {
	basic
	in    *Queue
	dim   int
	words []uint64
}

// NewBVWriter builds a bitvector level writer.
func NewBVWriter(name string, dim int, in *Queue) *BVWriter {
	return &BVWriter{basic: basic{name: name}, in: in, dim: dim}
}

// Tick implements Block.
func (b *BVWriter) Tick() bool {
	if b.done {
		return false
	}
	t, ok := b.in.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		b.words = append(b.words, uint64(t.N))
		return true
	case token.Stop:
		return true
	case token.Done:
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", t)
}

// Words returns the written machine words.
func (b *BVWriter) Words() []uint64 { return b.words }

// VecValsWriter appends the active lanes of packed vector tokens, gated by
// the intersected bitvector words, producing a dense value array aligned
// with the written bitvector level.
type VecValsWriter struct {
	basic
	arena *VecArena
	inBV  *Queue
	inVec *Queue
	vals  []float64
}

// NewVecValsWriter builds a vectorized value writer.
func NewVecValsWriter(name string, arena *VecArena, inBV, inVec *Queue) *VecValsWriter {
	return &VecValsWriter{basic: basic{name: name}, arena: arena, inBV: inBV, inVec: inVec}
}

// Tick implements Block.
func (b *VecValsWriter) Tick() bool {
	if b.done {
		return false
	}
	tb, ok := b.inBV.Peek()
	if !ok {
		return false
	}
	tv, ok := b.inVec.Peek()
	if !ok {
		return false
	}
	switch {
	case tb.IsVal() && tv.IsVal():
		b.inBV.Pop()
		b.inVec.Pop()
		vec := b.arena.At(tv.N)
		for w := uint64(tb.N); w != 0; w &= w - 1 {
			b.vals = append(b.vals, vec[bits.TrailingZeros64(w)])
		}
		return true
	case tb.IsStop() && tv.IsStop():
		b.inBV.Pop()
		b.inVec.Pop()
		return true
	case tb.IsDone() && tv.IsDone():
		b.inBV.Pop()
		b.inVec.Pop()
		b.done = true
		return true
	}
	return b.fail("misaligned inputs %v vs %v", tb, tv)
}

// Vals returns the written values.
func (b *VecValsWriter) Vals() []float64 { return b.vals }

// InQueues implements Block.
func (b *BVScanner) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *BVScanner) OutPorts() []*Out { return []*Out{b.outBV, b.outRef} }

// InQueues implements Block.
func (b *BVIntersect) InQueues() []*Queue {
	return []*Queue{b.inBVA, b.inRefA, b.inBVB, b.inRefB}
}

// OutPorts implements Block.
func (b *BVIntersect) OutPorts() []*Out { return b.outs() }

// InQueues implements Block.
func (b *VecLoad) InQueues() []*Queue { return []*Queue{b.inBV, b.inMask, b.inBase} }

// OutPorts implements Block.
func (b *VecLoad) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Block.
func (b *VecALU) InQueues() []*Queue { return []*Queue{b.inA, b.inB} }

// OutPorts implements Block.
func (b *VecALU) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Block.
func (b *BVExpand) InQueues() []*Queue { return []*Queue{b.inBV, b.inMask, b.inBase} }

// OutPorts implements Block.
func (b *BVExpand) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Block.
func (b *BVConvert) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *BVConvert) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Block.
func (b *BVWriter) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *BVWriter) OutPorts() []*Out { return nil }

// InQueues implements Block.
func (b *VecValsWriter) InQueues() []*Queue { return []*Queue{b.inBV, b.inVec} }

// OutPorts implements Block.
func (b *VecValsWriter) OutPorts() []*Out { return nil }
