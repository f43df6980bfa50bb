package core

// ArrayStore is the store mode of the array block (paper Definition 3.5):
// given one reference stream and one data stream it stores each value at its
// reference location as a side effect. With references produced by a locator
// over a dense result, it implements scatter — which lets, e.g., the linear
// combination of rows matrix-vector product accumulate into a dense output
// and avoid a vector reducer (paper Section 4.2).
type ArrayStore struct {
	basic
	vals       []float64
	accumulate bool
	inRef      *Queue
	inVal      *Queue
}

// NewArrayStore builds a store-mode array over the backing value array.
// With accumulate set, stores add into the location instead of overwriting,
// turning the block into a scatter-accumulator.
func NewArrayStore(name string, vals []float64, accumulate bool, inRef, inVal *Queue) *ArrayStore {
	return &ArrayStore{basic: basic{name: name}, vals: vals, accumulate: accumulate, inRef: inRef, inVal: inVal}
}

// Vals exposes the backing array after the stream completes.
func (b *ArrayStore) Vals() []float64 { return b.vals }

// Tick implements Block.
func (b *ArrayStore) Tick() bool {
	if b.done {
		return false
	}
	tr, ok := b.inRef.Peek()
	if !ok {
		return false
	}
	tv, ok := b.inVal.Peek()
	if !ok {
		return false
	}
	switch {
	case tr.IsVal() && (tv.IsVal() || tv.IsEmpty()):
		b.inRef.Pop()
		b.inVal.Pop()
		if tr.N < 0 || tr.N >= int64(len(b.vals)) {
			return b.fail("reference %d out of range [0,%d)", tr.N, len(b.vals))
		}
		v := 0.0
		if tv.IsVal() {
			v = tv.V
		}
		if b.accumulate {
			b.vals[tr.N] += v
		} else {
			b.vals[tr.N] = v
		}
		return true
	case tr.IsEmpty() && (tv.IsVal() || tv.IsEmpty()):
		// No location for this value (absent union side): drop it.
		b.inRef.Pop()
		b.inVal.Pop()
		return true
	case tr.IsStop() && tv.IsStop():
		if tr.StopLevel() != tv.StopLevel() {
			return b.fail("misaligned stops S%d vs S%d", tr.StopLevel(), tv.StopLevel())
		}
		b.inRef.Pop()
		b.inVal.Pop()
		return true
	case tr.IsDone() && tv.IsDone():
		b.inRef.Pop()
		b.inVal.Pop()
		b.done = true
		return true
	}
	return b.fail("misaligned inputs %v vs %v", tr, tv)
}

// InQueues implements Block.
func (b *ArrayStore) InQueues() []*Queue { return []*Queue{b.inRef, b.inVal} }

// OutPorts implements Block.
func (b *ArrayStore) OutPorts() []*Out { return nil }
