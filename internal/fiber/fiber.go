// Package fiber implements the fibertree data model of the Sparse Abstract
// Machine (paper Section 3.1).
//
// A tensor is a coordinate tree: each tree level holds the coordinates of one
// tensor dimension, and each coordinate links to a fiber (a list of child
// coordinates) at the next level. Only subtrees containing nonzeros are
// stored. Every level is independently assigned a storage format: compressed
// (segment + coordinate arrays, as in DCSR), dense/uncompressed (a single
// dimension size), bitvector (one bit per possible coordinate), or
// linked-list (the OuterSPACE discordant-write format of paper Section 6.5).
package fiber

import (
	"fmt"
	"math/bits"
	"sort"
)

// Format identifies the storage format of one fibertree level.
type Format uint8

const (
	// Dense is the uncompressed level format: a fiber stores every
	// coordinate 0..N-1 implicitly and is described by the dimension size.
	Dense Format = iota
	// Compressed stores a segment array and a coordinate array holding only
	// coordinates with nonempty subtrees (the DCSR building block).
	Compressed
	// Bitvector stores one bit per coordinate; positions of child fibers are
	// recovered by popcount (paper Section 4.3).
	Bitvector
	// LinkedList stores fibers as chained nodes, supporting discordant
	// (out-of-order) writes as used by OuterSPACE (paper Section 6.5).
	LinkedList
)

func (f Format) String() string {
	switch f {
	case Dense:
		return "dense"
	case Compressed:
		return "compressed"
	case Bitvector:
		return "bitvector"
	case LinkedList:
		return "linkedlist"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// Level is one fibertree level. A level holds a set of fibers addressed by
// reference handles; a fiber is an ordered list of coordinates, each with a
// child reference locating its subtree at the next level (or its value in the
// value array at the last level).
type Level interface {
	// Kind reports the storage format.
	Kind() Format
	// DimSize is the size of the tensor dimension this level represents.
	DimSize() int
	// NumFibers is the number of fibers stored at this level.
	NumFibers() int
	// FiberLen returns the number of stored coordinates in fiber r.
	FiberLen(r int) int
	// Coord returns the i-th coordinate of fiber r, in ascending order.
	Coord(r, i int) int64
	// ChildRef returns the reference to the subtree of the i-th coordinate
	// of fiber r.
	ChildRef(r, i int) int64
	// Locate performs iterate-locate: it finds coordinate c within fiber r
	// and returns its child reference (paper Section 4.2).
	Locate(r int, c int64) (int64, bool)
}

// CompressedLevel is the compressed (DCSR-style) level format of Figure 1c:
// Seg[r]..Seg[r+1] delimits fiber r inside Crd, and a coordinate's child
// reference is its position in Crd.
type CompressedLevel struct {
	N   int     // dimension size
	Seg []int32 // len = NumFibers+1
	Crd []int32 // stored coordinates
}

// Kind implements Level.
func (l *CompressedLevel) Kind() Format { return Compressed }

// DimSize implements Level.
func (l *CompressedLevel) DimSize() int { return l.N }

// NumFibers implements Level.
func (l *CompressedLevel) NumFibers() int { return len(l.Seg) - 1 }

// FiberLen implements Level.
func (l *CompressedLevel) FiberLen(r int) int { return int(l.Seg[r+1] - l.Seg[r]) }

// Coord implements Level.
func (l *CompressedLevel) Coord(r, i int) int64 { return int64(l.Crd[int(l.Seg[r])+i]) }

// ChildRef implements Level.
func (l *CompressedLevel) ChildRef(r, i int) int64 { return int64(int(l.Seg[r]) + i) }

// Locate implements Level via binary search within the fiber.
func (l *CompressedLevel) Locate(r int, c int64) (int64, bool) {
	lo, hi := int(l.Seg[r]), int(l.Seg[r+1])
	i := lo + sort.Search(hi-lo, func(k int) bool { return int64(l.Crd[lo+k]) >= c })
	if i < hi && int64(l.Crd[i]) == c {
		return int64(i), true
	}
	return 0, false
}

// DenseLevel is the uncompressed level format: every fiber implicitly stores
// coordinates 0..N-1 and child references are computed positionally
// (Figure 3, right).
type DenseLevel struct {
	N      int
	Fibers int
}

// Kind implements Level.
func (l *DenseLevel) Kind() Format { return Dense }

// DimSize implements Level.
func (l *DenseLevel) DimSize() int { return l.N }

// NumFibers implements Level.
func (l *DenseLevel) NumFibers() int { return l.Fibers }

// FiberLen implements Level.
func (l *DenseLevel) FiberLen(r int) int { return l.N }

// Coord implements Level.
func (l *DenseLevel) Coord(r, i int) int64 { return int64(i) }

// ChildRef implements Level.
func (l *DenseLevel) ChildRef(r, i int) int64 { return int64(r*l.N + i) }

// Locate implements Level; dense levels locate every coordinate.
func (l *DenseLevel) Locate(r int, c int64) (int64, bool) {
	if c < 0 || c >= int64(l.N) {
		return 0, false
	}
	return int64(r)*int64(l.N) + c, true
}

// WordBits is the bitvector machine word width b of paper Section 4.3.
const WordBits = 64

// BitvectorLevel stores each fiber as ceil(N/64) machine words with one bit
// per coordinate. Child references are cumulative popcounts so downstream
// levels index densely packed storage (paper Section 4.3).
type BitvectorLevel struct {
	N      int
	Words  []uint64 // NumFibers * WordsPerFiber machine words
	prefix []int32  // cumulative popcount before each word
}

// WordsPerFiber is the number of machine words in one fiber.
func (l *BitvectorLevel) WordsPerFiber() int { return (l.N + WordBits - 1) / WordBits }

// Kind implements Level.
func (l *BitvectorLevel) Kind() Format { return Bitvector }

// DimSize implements Level.
func (l *BitvectorLevel) DimSize() int { return l.N }

// NumFibers implements Level.
func (l *BitvectorLevel) NumFibers() int {
	w := l.WordsPerFiber()
	if w == 0 {
		return 0
	}
	return len(l.Words) / w
}

// buildPrefix computes cumulative popcounts; called by builders.
func (l *BitvectorLevel) buildPrefix() {
	l.prefix = make([]int32, len(l.Words)+1)
	for i, w := range l.Words {
		l.prefix[i+1] = l.prefix[i] + int32(bits.OnesCount64(w))
	}
}

// Word returns the i-th machine word of fiber r.
func (l *BitvectorLevel) Word(r, i int) uint64 { return l.Words[r*l.WordsPerFiber()+i] }

// WordBase returns the reference (popcount prefix) of the first set bit in
// the i-th word of fiber r.
func (l *BitvectorLevel) WordBase(r, i int) int64 { return int64(l.prefix[r*l.WordsPerFiber()+i]) }

// FiberLen implements Level: the popcount of the fiber.
func (l *BitvectorLevel) FiberLen(r int) int {
	w := l.WordsPerFiber()
	return int(l.prefix[(r+1)*w] - l.prefix[r*w])
}

// Coord implements Level: the i-th set bit of fiber r.
func (l *BitvectorLevel) Coord(r, i int) int64 {
	w := l.WordsPerFiber()
	base := int(l.prefix[r*w])
	// Find the word containing the (base+i+1)-th set bit.
	target := int32(base + i + 1)
	lo := r * w
	hi := (r + 1) * w
	k := lo + sort.Search(hi-lo, func(j int) bool { return l.prefix[lo+j+1] >= target })
	word := l.Words[k]
	rank := i - int(l.prefix[k]-l.prefix[r*w])
	// Select the rank-th set bit within word.
	for b := 0; b < rank; b++ {
		word &= word - 1
	}
	return int64((k-lo)*WordBits + bits.TrailingZeros64(word))
}

// ChildRef implements Level.
func (l *BitvectorLevel) ChildRef(r, i int) int64 {
	w := l.WordsPerFiber()
	return int64(l.prefix[r*w]) + int64(i)
}

// Locate implements Level via direct bit inspection.
func (l *BitvectorLevel) Locate(r int, c int64) (int64, bool) {
	if c < 0 || c >= int64(l.N) {
		return 0, false
	}
	w := l.WordsPerFiber()
	k := r*w + int(c)/WordBits
	bit := uint(c) % WordBits
	if l.Words[k]&(1<<bit) == 0 {
		return 0, false
	}
	rank := bits.OnesCount64(l.Words[k] & ((1 << bit) - 1))
	return int64(l.prefix[k]) + int64(rank), true
}

// LinkedListLevel stores fibers as chains of nodes so that fibers can be
// appended discordantly (out of storage order), as OuterSPACE does for its
// intermediate tensor. Reads present the same Level interface as a
// compressed level.
type LinkedListLevel struct {
	N     int
	Heads []int32 // first node index per fiber, -1 for empty
	Next  []int32 // next node index, -1 terminates
	Crd   []int32 // coordinate per node
	Child []int32 // child reference per node
}

// Kind implements Level.
func (l *LinkedListLevel) Kind() Format { return LinkedList }

// DimSize implements Level.
func (l *LinkedListLevel) DimSize() int { return l.N }

// NumFibers implements Level.
func (l *LinkedListLevel) NumFibers() int { return len(l.Heads) }

// FiberLen implements Level by walking the chain.
func (l *LinkedListLevel) FiberLen(r int) int {
	n := 0
	for i := l.Heads[r]; i >= 0; i = l.Next[i] {
		n++
	}
	return n
}

// node returns the i-th node index of fiber r.
func (l *LinkedListLevel) node(r, i int) int32 {
	k := l.Heads[r]
	for ; i > 0; i-- {
		k = l.Next[k]
	}
	return k
}

// Coord implements Level.
func (l *LinkedListLevel) Coord(r, i int) int64 { return int64(l.Crd[l.node(r, i)]) }

// ChildRef implements Level.
func (l *LinkedListLevel) ChildRef(r, i int) int64 { return int64(l.Child[l.node(r, i)]) }

// Locate implements Level by linear scan (linked lists are not searchable).
func (l *LinkedListLevel) Locate(r int, c int64) (int64, bool) {
	for i := l.Heads[r]; i >= 0; i = l.Next[i] {
		if int64(l.Crd[i]) == c {
			return int64(l.Child[i]), true
		}
	}
	return 0, false
}

// AppendFiber appends a fiber to parent r preserving coordinate order within
// the chain insertion point; coordinates must arrive sorted per fiber.
func (l *LinkedListLevel) AppendFiber(r int, crds []int32, children []int32) {
	for len(l.Heads) <= r {
		l.Heads = append(l.Heads, -1)
	}
	for i := range crds {
		idx := int32(len(l.Crd))
		l.Crd = append(l.Crd, crds[i])
		l.Child = append(l.Child, children[i])
		l.Next = append(l.Next, -1)
		if l.Heads[r] < 0 {
			l.Heads[r] = idx
		} else {
			// Append at the tail of the chain.
			k := l.Heads[r]
			for l.Next[k] >= 0 {
				k = l.Next[k]
			}
			l.Next[k] = idx
		}
	}
}

// Tensor is a multidimensional tensor stored as a fibertree: one Level per
// dimension (in level/mode order) plus a value array aligned with the last
// level's child references.
type Tensor struct {
	Name   string
	Dims   []int // dimension sizes in level order
	Levels []Level
	Vals   []float64
}

// Order is the number of tensor dimensions.
func (t *Tensor) Order() int { return len(t.Levels) }

// NNZ is the number of stored values.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Scalar wraps a single value as an order-0 tensor.
func Scalar(name string, v float64) *Tensor {
	return &Tensor{Name: name, Vals: []float64{v}}
}

// Entry is one stored (coordinate, value) point produced by Iterate.
type Entry struct {
	Crd []int64
	Val float64
}

// Iterate walks the fibertree depth-first and calls fn for every stored
// value with its full coordinate tuple (in level order). Iteration order is
// lexicographic in level order.
func (t *Tensor) Iterate(fn func(crd []int64, val float64)) {
	if t.Order() == 0 {
		if len(t.Vals) > 0 {
			fn(nil, t.Vals[0])
		}
		return
	}
	crd := make([]int64, t.Order())
	t.walk(0, 0, crd, fn)
}

func (t *Tensor) walk(level int, ref int, crd []int64, fn func([]int64, float64)) {
	l := t.Levels[level]
	n := l.FiberLen(ref)
	for i := 0; i < n; i++ {
		crd[level] = l.Coord(ref, i)
		child := l.ChildRef(ref, i)
		if level == t.Order()-1 {
			fn(crd, t.Vals[child])
		} else {
			t.walk(level+1, int(child), crd, fn)
		}
	}
}

// Entries collects all stored points of the tensor.
func (t *Tensor) Entries() []Entry {
	var out []Entry
	t.Iterate(func(crd []int64, v float64) {
		c := make([]int64, len(crd))
		copy(c, crd)
		out = append(out, Entry{Crd: c, Val: v})
	})
	return out
}

// Validate checks structural consistency of the fibertree: level fiber
// counts chain correctly and the value array matches the last level.
func (t *Tensor) Validate() error {
	if t.Order() == 0 {
		if len(t.Vals) != 1 {
			return fmt.Errorf("fiber: scalar tensor %q has %d values", t.Name, len(t.Vals))
		}
		return nil
	}
	fibers := 1
	for d, l := range t.Levels {
		if l.NumFibers() != fibers {
			return fmt.Errorf("fiber: tensor %q level %d has %d fibers, want %d", t.Name, d, l.NumFibers(), fibers)
		}
		total := 0
		for r := 0; r < fibers; r++ {
			n := l.FiberLen(r)
			prev := int64(-1)
			for i := 0; i < n; i++ {
				c := l.Coord(r, i)
				if c <= prev {
					return fmt.Errorf("fiber: tensor %q level %d fiber %d coordinates not strictly ascending", t.Name, d, r)
				}
				if c < 0 || c >= int64(l.DimSize()) {
					return fmt.Errorf("fiber: tensor %q level %d coordinate %d out of range [0,%d)", t.Name, d, c, l.DimSize())
				}
				prev = c
			}
			total += n
		}
		fibers = total
	}
	if len(t.Vals) != fibers {
		return fmt.Errorf("fiber: tensor %q has %d values, want %d", t.Name, len(t.Vals), fibers)
	}
	return nil
}

// NewBitvectorLevel builds a bitvector level from raw machine words,
// computing the popcount prefix used for child references.
func NewBitvectorLevel(n int, words []uint64) *BitvectorLevel {
	l := &BitvectorLevel{N: n, Words: words}
	l.buildPrefix()
	return l
}
