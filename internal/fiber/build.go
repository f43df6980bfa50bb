package fiber

import (
	"fmt"
	"math/bits"
	"slices"
)

// Build assembles a fibertree tensor from sorted, duplicate-free coordinate
// points. coords holds one []int64 per point (in level order), sorted
// lexicographically; vals holds the corresponding values. formats selects the
// storage format of each level.
//
// Dense levels materialize every coordinate: absent subtrees below a dense
// level become zero-filled storage, exactly as an uncompressed level in the
// paper's data-representation language.
func Build(name string, dims []int, formats []Format, coords [][]int64, vals []float64) (*Tensor, error) {
	order := len(dims)
	if len(formats) != order {
		return nil, fmt.Errorf("fiber: %d formats for order-%d tensor %q", len(formats), order, name)
	}
	if len(coords) != len(vals) {
		return nil, fmt.Errorf("fiber: %d coordinate tuples but %d values for %q", len(coords), len(vals), name)
	}
	if order == 0 {
		v := 0.0
		if len(vals) > 0 {
			v = vals[0]
		}
		return Scalar(name, v), nil
	}
	for i := 1; i < len(coords); i++ {
		if slices.Compare(coords[i-1], coords[i]) >= 0 {
			return nil, fmt.Errorf("fiber: coordinates for %q not sorted/unique at point %d", name, i)
		}
	}
	for _, c := range coords {
		if len(c) != order {
			return nil, fmt.Errorf("fiber: coordinate tuple of length %d for order-%d tensor %q", len(c), order, name)
		}
		for d, x := range c {
			if x < 0 || x >= int64(dims[d]) {
				return nil, fmt.Errorf("fiber: coordinate %d out of range [0,%d) in dim %d of %q", x, dims[d], d, name)
			}
		}
	}

	t := &Tensor{Name: name, Dims: append([]int(nil), dims...), Levels: make([]Level, order)}
	// slot[i] is point i's fiber handle at the level under construction.
	slot := make([]int64, len(coords))
	fibers := 1
	for d := 0; d < order; d++ {
		switch formats[d] {
		case Dense:
			lvl := &DenseLevel{N: dims[d], Fibers: fibers}
			t.Levels[d] = lvl
			for i := range coords {
				slot[i] = slot[i]*int64(dims[d]) + coords[i][d]
			}
			fibers *= dims[d]
		case Compressed, LinkedList:
			seg := make([]int32, fibers+1)
			var crd []int32
			for i := 0; i < len(coords); {
				f := slot[i]
				c := coords[i][d]
				pos := int64(len(crd))
				crd = append(crd, int32(c))
				seg[f+1]++
				for i < len(coords) && slot[i] == f && coords[i][d] == c {
					slot[i] = pos
					i++
				}
			}
			for f := 0; f < fibers; f++ {
				seg[f+1] += seg[f]
			}
			if formats[d] == Compressed {
				t.Levels[d] = &CompressedLevel{N: dims[d], Seg: seg, Crd: crd}
			} else {
				t.Levels[d] = compressedToLinkedList(dims[d], seg, crd)
			}
			fibers = len(crd)
		case Bitvector:
			w := (dims[d] + WordBits - 1) / WordBits
			lvl := &BitvectorLevel{N: dims[d], Words: make([]uint64, fibers*w)}
			for i := range coords {
				c := coords[i][d]
				lvl.Words[slot[i]*int64(w)+c/WordBits] |= 1 << (uint(c) % WordBits)
			}
			lvl.buildPrefix()
			for i := range coords {
				f := slot[i]
				c := coords[i][d]
				k := f*int64(w) + c/WordBits
				rank := bits.OnesCount64(lvl.Words[k] & ((1 << (uint(c) % WordBits)) - 1))
				slot[i] = int64(lvl.prefix[k]) + int64(rank)
			}
			t.Levels[d] = lvl
			fibers = int(lvl.prefix[len(lvl.Words)])
		default:
			return nil, fmt.Errorf("fiber: unsupported level format %v", formats[d])
		}
	}
	t.Vals = make([]float64, fibers)
	for i := range coords {
		t.Vals[slot[i]] += vals[i]
	}
	return t, nil
}

// compressedToLinkedList converts compressed-level arrays into the chained
// representation. Child references are preserved.
func compressedToLinkedList(n int, seg, crd []int32) *LinkedListLevel {
	l := &LinkedListLevel{N: n, Heads: make([]int32, len(seg)-1)}
	for f := range l.Heads {
		l.Heads[f] = -1
	}
	for f := 0; f < len(seg)-1; f++ {
		crds := crd[seg[f]:seg[f+1]]
		children := make([]int32, len(crds))
		for i := range children {
			children[i] = seg[f] + int32(i)
		}
		l.AppendFiber(f, crds, children)
	}
	return l
}
