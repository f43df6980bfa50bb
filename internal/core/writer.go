package core

import (
	"sam/internal/fiber"
	"sam/internal/token"
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
	return &CrdWriter{basic: basic{name: name}, in: in, format: format, dim: dim, level: level, seg: []int32{0}}
}

// Tick implements Block.
func (b *CrdWriter) Tick() bool {
	if b.done {
		return false
	}
	t, ok := b.in.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		b.crd = append(b.crd, int32(t.N))
		return true
	case token.Stop:
		b.seg = append(b.seg, int32(len(b.crd)))
		return true
	case token.Done:
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", t)
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
	return &ValsWriter{basic: basic{name: name}, in: in}
}

// Tick implements Block.
func (b *ValsWriter) Tick() bool {
	if b.done {
		return false
	}
	t, ok := b.in.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		b.vals = append(b.vals, t.V)
		return true
	case token.Empty:
		b.vals = append(b.vals, 0)
		return true
	case token.Stop:
		return true
	case token.Done:
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", t)
}

// Vals returns the written value array.
func (b *ValsWriter) Vals() []float64 { return b.vals }

// InQueues implements Ported.
func (b *CrdWriter) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Ported.
func (b *CrdWriter) OutPorts() []*Out { return nil }

// InQueues implements Ported.
func (b *ValsWriter) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Ported.
func (b *ValsWriter) OutPorts() []*Out { return nil }
