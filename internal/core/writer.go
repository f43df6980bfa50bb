package core

import (
	"sam/internal/fiber"
	"sam/internal/token"
)

// The writers' arrays, recycled from run to run through Release: they hold
// the whole output, which the caller copies out, and growing them afresh
// each run is much of what a run allocates. A matrix has two coordinate
// levels, each a segment and a coordinate array.
var (
	freeCrds = newFreeList[[]int32](4)
	freeVals = newFreeList[[]float64](1)
)

// CrdWriter is the level writer for coordinate streams (paper
// Definition 3.8): it consumes one coordinate stream and materializes a
// compressed (or linked-list) level in memory, internally generating the
// segment structure from the stream's stop tokens. Every stop token closes
// the current fiber; fibers arrive in storage order.
type CrdWriter struct {
	basic
	in     *Queue
	format fiber.Format
	dim    int
	level  int

	seg []int32
	crd []int32
}

// NewCrdWriter builds a coordinate-level writer. format selects Compressed
// or LinkedList storage; dim is the dimension size and level the output
// level index of the written level.
func NewCrdWriter(name string, format fiber.Format, dim, level int, in *Queue) *CrdWriter {
	return &CrdWriter{basic: basic{name: name}, in: in, format: format, dim: dim, level: level,
		seg: append(freeCrds.get()[:0], 0), crd: freeCrds.get()[:0]}
}

// Tick implements Block: a span of one cycle.
func (b *CrdWriter) Tick() bool { return tick(b, b.in.clk) }

// span implements spanner: one token a cycle, from the cycle each turns
// visible.
func (b *CrdWriter) span(end uint32) (stop, prog uint32) {
	now := b.in.clk.now
	for now < end && !b.done {
		s := b.in.headSlot()
		if s == nil || s.at >= end {
			return end, prog
		}
		now = max(now, s.at)
		t := s.tok()
		b.in.PopPeeked()
		switch t.Kind {
		case token.Val:
			b.crd = append(b.crd, int32(t.N))
		case token.Stop:
			b.seg = append(b.seg, int32(len(b.crd)))
		case token.Done:
			b.done = true
		default:
			b.fail("unexpected token %v", t)
			return now, prog
		}
		now++
		prog = now
	}
	return now, prog
}

// Level returns the written level. Call after the stream completed.
//
// A stream that carried no coordinates at a level below the top is the
// empty-result artifact (the parent level has no coordinates either, so its
// closing stop tokens delimit zero fibers, not one empty fiber); such levels
// materialize with zero segments to keep the fibertree consistent.
func (b *CrdWriter) Level() fiber.Level {
	seg := b.seg
	if len(b.crd) == 0 && b.level > 0 {
		seg = []int32{0}
	}
	if b.format == fiber.LinkedList {
		ll := &fiber.LinkedListLevel{N: b.dim}
		for f := 0; f < len(seg)-1; f++ {
			crds := b.crd[seg[f]:seg[f+1]]
			children := make([]int32, len(crds))
			for i := range children {
				children[i] = seg[f] + int32(i)
			}
			ll.AppendFiber(f, crds, children)
		}
		return ll
	}
	return &fiber.CompressedLevel{N: b.dim, Seg: seg, Crd: b.crd}
}

// Release hands the writer's arrays back for a later writer to reuse. The
// level Level returned must no longer be read.
func (b *CrdWriter) Release() {
	freeCrds.put(b.seg)
	freeCrds.put(b.crd)
	b.seg, b.crd = nil, nil
}

// NumFibers reports how many fibers (segments) were closed.
func (b *CrdWriter) NumFibers() int { return len(b.seg) - 1 }

// ValsWriter is the level writer for value streams: it appends data tokens
// to a value array in stream order (paper Definition 3.8). Empty tokens
// store an explicit zero.
type ValsWriter struct {
	basic
	in   *Queue
	vals []float64
}

// NewValsWriter builds a value writer.
func NewValsWriter(name string, in *Queue) *ValsWriter {
	return &ValsWriter{basic: basic{name: name}, in: in, vals: freeVals.get()[:0]}
}

// Tick implements Block: a span of one cycle.
func (b *ValsWriter) Tick() bool { return tick(b, b.in.clk) }

// span implements spanner: one token a cycle, from the cycle each turns
// visible.
func (b *ValsWriter) span(end uint32) (stop, prog uint32) {
	now := b.in.clk.now
	for now < end && !b.done {
		s := b.in.headSlot()
		if s == nil || s.at >= end {
			return end, prog
		}
		now = max(now, s.at)
		t := s.tok()
		b.in.PopPeeked()
		switch t.Kind {
		case token.Val:
			b.vals = append(b.vals, t.V)
		case token.Empty:
			b.vals = append(b.vals, 0)
		case token.Done:
			b.done = true
		}
		now++
		prog = now
	}
	return now, prog
}

// Vals returns the written value array.
func (b *ValsWriter) Vals() []float64 { return b.vals }

// Release hands the writer's array back for a later writer to reuse. The
// array Vals returned must no longer be read.
func (b *ValsWriter) Release() {
	freeVals.put(b.vals)
	b.vals = nil
}

// InQueues implements Block.
func (b *CrdWriter) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *CrdWriter) OutPorts() []*Out { return nil }

// InQueues implements Block.
func (b *ValsWriter) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *ValsWriter) OutPorts() []*Out { return nil }
