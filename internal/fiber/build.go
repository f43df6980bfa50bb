package fiber

import (
	"fmt"
	"math/bits"
)

// Point is one stored tensor component: its coordinate tuple, in level
// order, and its value. It is tensor.Point, so a COO's points are Build's
// input as they stand.
type Point struct {
	Crd []int64
	Val float64
}

// Less reports whether coordinate tuple a sorts strictly before b,
// lexicographically, a proper prefix first: slices.Compare(a, b) < 0 without
// the generic call, for the per-point checks of an operand's order.
func Less(a, b []int64) bool {
	n := min(len(a), len(b))
	for k, x := range a[:n] {
		if y := b[k]; x != y {
			return x < y
		}
	}
	return len(a) < len(b)
}

// UnsortedError is Build's error for points that are not strictly
// ascending: the one failure a caller can mend, by sorting (and summing
// duplicates) before it builds again.
type UnsortedError struct {
	Name  string
	Point int // the first point not after its predecessor
}

func (e *UnsortedError) Error() string {
	return fmt.Sprintf("fiber: coordinates for %q not sorted/unique at point %d", e.Name, e.Point)
}

// Build assembles a fibertree tensor from sorted, duplicate-free points,
// whose coordinate tuples are in level order; formats selects the storage
// format of each level. It reads the points in place and never writes them.
// Points out of order fail with an *UnsortedError.
//
// Dense levels materialize every coordinate: absent subtrees below a dense
// level become zero-filled storage, exactly as an uncompressed level in the
// paper's data-representation language.
func Build(name string, dims []int, formats []Format, pts []Point) (*Tensor, error) {
	order := len(dims)
	if len(formats) != order {
		return nil, fmt.Errorf("fiber: %d formats for order-%d tensor %q", len(formats), order, name)
	}
	if order == 0 {
		v := 0.0
		if len(pts) > 0 {
			v = pts[0].Val
		}
		return Scalar(name, v), nil
	}
	if err := checkPoints(name, dims, pts); err != nil {
		return nil, err
	}

	t := &Tensor{Name: name, Dims: append([]int(nil), dims...), Levels: make([]Level, order)}
	// slot[i] is point i's fiber handle at the level under construction.
	slot := make([]int64, len(pts))
	fibers := 1
	for d := 0; d < order; d++ {
		switch formats[d] {
		case Dense:
			lvl := &DenseLevel{N: dims[d], Fibers: fibers}
			t.Levels[d] = lvl
			for i := range pts {
				slot[i] = slot[i]*int64(dims[d]) + pts[i].Crd[d]
			}
			fibers *= dims[d]
		case Compressed, LinkedList:
			seg := make([]int32, fibers+1)
			crd := make([]int32, 0, entries(pts, slot, d, order))
			for i := 0; i < len(pts); {
				f := slot[i]
				c := pts[i].Crd[d]
				pos := int64(len(crd))
				crd = append(crd, int32(c))
				seg[f+1]++
				for i < len(pts) && slot[i] == f && pts[i].Crd[d] == c {
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
			for i := range pts {
				c := pts[i].Crd[d]
				lvl.Words[slot[i]*int64(w)+c/WordBits] |= 1 << (uint(c) % WordBits)
			}
			lvl.buildPrefix()
			for i := range pts {
				f := slot[i]
				c := pts[i].Crd[d]
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
	for i := range pts {
		t.Vals[slot[i]] += pts[i].Val
	}
	return t, nil
}

// checkPoints is Build's validation, one pass over the points: the first
// point not after its predecessor is the error, wherever it lies; failing
// that, the first tuple of the wrong length or with a coordinate out of
// range is.
func checkPoints(name string, dims []int, pts []Point) error {
	var bad error
	for i := range pts {
		crd := pts[i].Crd
		if i > 0 && !Less(pts[i-1].Crd, crd) {
			return &UnsortedError{Name: name, Point: i}
		}
		if bad != nil {
			continue
		}
		if len(crd) != len(dims) {
			bad = fmt.Errorf("fiber: coordinate tuple of length %d for order-%d tensor %q", len(crd), len(dims), name)
			continue
		}
		for d, x := range crd {
			if x < 0 || x >= int64(dims[d]) {
				bad = fmt.Errorf("fiber: coordinate %d out of range [0,%d) in dim %d of %q", x, dims[d], d, name)
				break
			}
		}
	}
	return bad
}

// entries counts the coordinates compressed level d stores: one per run of
// points that share a fiber and a coordinate there. Points are unique, so
// at the last level that is every point.
func entries(pts []Point, slot []int64, d, order int) int {
	if d == order-1 {
		return len(pts)
	}
	n := 0
	for i := range pts {
		if i == 0 || slot[i] != slot[i-1] || pts[i].Crd[d] != pts[i-1].Crd[d] {
			n++
		}
	}
	return n
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
