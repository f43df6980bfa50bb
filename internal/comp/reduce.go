package comp

import (
	"slices"
	"sort"

	"sam/internal/core"
	"sam/internal/token"
)

// stepReduce dispatches on the reducer dimension n (Definition 3.7):
// scalar, vector and matrix reducers have specialized merged loops; deeper
// reductions run the general n-dimensional accumulator. Reducer slots
// follow reducePorts order: RedN coordinate streams outermost first, then
// values, on both sides.
func stepReduce(si *StepIR) step {
	switch si.RedN {
	case 0:
		return stepScalarReduce(si)
	case 1:
		return stepVectorReduce(si)
	case 2:
		return stepMatrixReduce(si)
	}
	return stepTensorReduce(si)
}

// stepScalarReduce sums every innermost group of a value stream, lowering
// stops by one level and emitting explicit zeros for empty groups.
func stepScalarReduce(si *StepIR) step {
	in := si.Ins[0]
	out := si.Outs[0]
	return func(x *exec) {
		cv := x.cur(in)
		acc := 0.0
		for {
			t := cv.next()
			switch t.Kind {
			case token.Val:
				acc += t.V
			case token.Empty:
			case token.Stop:
				x.push(out, token.V(acc))
				acc = 0
				if t.StopLevel() >= 1 {
					x.push(out, token.S(t.StopLevel()-1))
				}
			case token.Done:
				x.push(out, token.D())
				return
			}
		}
	}
}

// stepVectorReduce merges the fibers within each group of a paired
// coordinate/value stream, emitting unique sorted coordinates with summed
// values.
func stepVectorReduce(si *StepIR) step {
	inCrd, inVal := si.Ins[0], si.Ins[1]
	outCrd, outVal := si.Outs[0], si.Outs[1]
	name := si.Label
	return func(x *exec) {
		cc, cv := x.cur(inCrd), x.cur(inVal)
		acc := x.a.accMap()
		for {
			ct := cc.next()
			v := cv.next()
			switch {
			case ct.IsVal() && (v.IsVal() || v.IsEmpty()):
				if v.IsVal() {
					acc[ct.N] += v.V
				} else if _, ok := acc[ct.N]; !ok {
					acc[ct.N] = 0
				}
			case ct.IsStop() && (v.IsVal() || v.IsEmpty()):
				if v.IsVal() && v.V != 0 {
					fail("%s: nonzero orphan value %v", name, v)
				}
				v = cv.next()
				for v.IsVal() || v.IsEmpty() {
					if v.IsVal() && v.V != 0 {
						fail("%s: nonzero orphan value %v", name, v)
					}
					v = cv.next()
				}
				if !v.IsStop() || v.StopLevel() != ct.StopLevel() {
					fail("%s: misaligned after orphan: %v vs %v", name, ct, v)
				}
				if ct.StopLevel() >= 1 {
					vecFlush(x, acc, outCrd, outVal, ct.StopLevel()-1)
				}
			case ct.IsStop() && v.IsStop() && ct.StopLevel() == v.StopLevel():
				if ct.StopLevel() >= 1 {
					vecFlush(x, acc, outCrd, outVal, ct.StopLevel()-1)
				}
			case ct.IsDone() && v.IsDone():
				x.push(outCrd, token.D())
				x.push(outVal, token.D())
				return
			default:
				fail("%s: misaligned inputs %v vs %v", name, ct, v)
			}
		}
	}
}

// vecFlush emits one merged group of the vector reducer — unique sorted
// coordinates with summed values, then the lowered stop — and empties the
// accumulator for the next group. The key buffer lives in the run arena so
// a warm flush allocates nothing.
func vecFlush(x *exec, acc map[int64]float64, outCrd, outVal, stop int) {
	keys := x.a.keyA[:0]
	for k := range acc {
		keys = append(keys, k)
	}
	x.a.keyA = keys
	slices.Sort(keys)
	for _, k := range keys {
		x.push(outCrd, token.C(k))
		x.push(outVal, token.V(acc[k]))
	}
	x.push(outCrd, token.S(stop))
	x.push(outVal, token.S(stop))
	clear(acc)
}

// stepMatrixReduce accumulates a two-level sub-tensor.
func stepMatrixReduce(si *StepIR) step {
	inOuter, inInner, inVal := si.Ins[0], si.Ins[1], si.Ins[2]
	outOuter, outInner, outVal := si.Outs[0], si.Outs[1], si.Outs[2]
	name := si.Label
	return func(x *exec) {
		co, ci, cv := x.cur(inOuter), x.cur(inInner), x.cur(inVal)
		acc := x.a.nestMap()
		var curOuter int64
		haveOuter := false
		for {
			ct := ci.next()
			v := cv.next()
			switch {
			case ct.IsVal() && (v.IsVal() || v.IsEmpty()):
				if !haveOuter {
					o := co.next()
					if !o.IsVal() {
						fail("%s: expected outer coordinate, got %v", name, o)
					}
					curOuter = o.N
					haveOuter = true
				}
				row := acc[curOuter]
				if row == nil {
					row = x.a.row()
					acc[curOuter] = row
				}
				if v.IsVal() {
					row[ct.N] += v.V
				} else if _, ok := row[ct.N]; !ok {
					row[ct.N] = 0
				}
			case ct.IsStop() && (v.IsVal() || v.IsEmpty()):
				// Orphan zeros from a structurally empty inner reduction:
				// discard until the matching stop arrives.
				for v.IsVal() || v.IsEmpty() {
					if v.IsVal() && v.V != 0 {
						fail("%s: nonzero orphan value %v", name, v)
					}
					v = cv.next()
				}
				if !v.IsStop() || v.StopLevel() != ct.StopLevel() {
					fail("%s: misaligned after orphan: %v vs %v", name, ct, v)
				}
				fallthrough
			case ct.IsStop() && v.IsStop() && ct.StopLevel() == v.StopLevel():
				m := ct.StopLevel()
				if m == 0 {
					if !haveOuter {
						o := co.next()
						if !o.IsVal() {
							fail("%s: expected outer coordinate for empty fiber, got %v", name, o)
						}
					}
					haveOuter = false
					continue
				}
				if !haveOuter {
					o := co.next()
					if o.IsVal() {
						// trailing empty inner fiber's outer coordinate
						o = co.next()
					}
					if !o.IsStop() || o.StopLevel() != m-1 {
						fail("%s: outer misaligned: %v vs inner %v", name, o, ct)
					}
				} else {
					o := co.next()
					if !o.IsStop() || o.StopLevel() != m-1 {
						fail("%s: outer misaligned: %v vs inner %v", name, o, ct)
					}
				}
				haveOuter = false
				if m >= 2 {
					matFlush(x, acc, outOuter, outInner, outVal, m-1)
				}
			case ct.IsDone() && v.IsDone():
				if o := co.next(); !o.IsDone() {
					fail("%s: outer stream not done: %v", name, o)
				}
				x.push(outOuter, token.D())
				x.push(outInner, token.D())
				x.push(outVal, token.D())
				return
			default:
				fail("%s: misaligned inputs %v vs %v", name, ct, v)
			}
		}
	}
}

// matFlush emits one merged group of the matrix reducer — rows in sorted
// outer order, each row's inner coordinates sorted, with the lowered stops —
// then recycles every row onto the arena's free list for the next group.
func matFlush(x *exec, acc map[int64]map[int64]float64, outOuter, outInner, outVal, stop int) {
	is := x.a.keyA[:0]
	for i := range acc {
		is = append(is, i)
	}
	x.a.keyA = is
	slices.Sort(is)
	for pos, i := range is {
		if pos > 0 {
			x.push(outInner, token.S(0))
			x.push(outVal, token.S(0))
		}
		x.push(outOuter, token.C(i))
		row := acc[i]
		js := x.a.keyB[:0]
		for j := range row {
			js = append(js, j)
		}
		x.a.keyB = js
		slices.Sort(js)
		for _, j := range js {
			x.push(outInner, token.C(j))
			x.push(outVal, token.V(row[j]))
		}
	}
	x.push(outOuter, token.S(stop-1))
	x.push(outInner, token.S(stop))
	x.push(outVal, token.S(stop))
	// Recycle rows in sorted-key order, not map order: deterministic free-
	// list order keeps each reused row paired with same-sized groups across
	// identical runs, so warm runs never regrow row buckets.
	for _, i := range is {
		row := acc[i]
		clear(row)
		x.a.rows = append(x.a.rows, row)
		delete(acc, i)
	}
}

// stepTensorReduce is the general n-dimensional reducer (n >= 3): n
// coordinate streams, outermost first, plus values. Stream pairing follows
// core.TensorReducer: outer stream j is shallower by offset = n-1-j levels,
// groups close at innermost stops of level >= n, and emission lowers every
// group-closing stop by one level.
func stepTensorReduce(si *StepIR) step {
	n := si.RedN
	inCrd := si.Ins[:n]
	inVal := si.Ins[n]
	outCrd := si.Outs[:n]
	outVal := si.Outs[n]
	name := si.Label
	return func(x *exec) {
		ic := x.curs(inCrd)
		iv := x.cur(inVal)
		acc := map[string]float64{}
		keys := map[string][]int64{}
		cur := make([]int64, n)
		have := make([]bool, n)
		flush := func(closeLvl int) {
			points := make([][]int64, 0, len(keys))
			for _, crd := range keys {
				points = append(points, crd)
			}
			sort.Slice(points, func(i, j int) bool {
				a, b := points[i], points[j]
				for k := range a {
					if a[k] != b[k] {
						return a[k] < b[k]
					}
				}
				return false
			})
			for i, crd := range points {
				change := 0
				if i > 0 {
					prev := points[i-1]
					for change < n && prev[change] == crd[change] {
						change++
					}
					if change < n-1 {
						// Separator: stream j closes j-change-1 nesting levels.
						for j := change + 1; j < n; j++ {
							x.push(outCrd[j], token.S(j-change-1))
						}
						x.push(outVal, token.S(n-change-2))
					}
				}
				for j := change; j < n; j++ {
					x.push(outCrd[j], token.C(crd[j]))
				}
				x.push(outVal, token.V(acc[core.PackKey(crd)]))
			}
			// Group-closing stops, lowered by one level on every stream.
			for j := 0; j < n; j++ {
				offset := n - 1 - j
				x.push(outCrd[j], token.S(closeLvl-1-offset))
			}
			x.push(outVal, token.S(closeLvl-1))
			acc = map[string]float64{}
			keys = map[string][]int64{}
		}
		for {
			tc := ic[n-1].peek()
			tv := iv.peek()
			switch {
			case tc.IsVal() && (tv.IsVal() || tv.IsEmpty()):
				for j := 0; j < n-1; j++ {
					if have[j] {
						continue
					}
					to := ic[j].next()
					if !to.IsVal() {
						fail("%s: expected outer coordinate on stream %d, got %v", name, j, to)
					}
					cur[j] = to.N
					have[j] = true
				}
				ic[n-1].next()
				iv.next()
				cur[n-1] = tc.N
				k := core.PackKey(cur)
				if _, seen := acc[k]; !seen {
					keys[k] = append([]int64(nil), cur...)
					acc[k] = 0
				}
				if tv.IsVal() {
					acc[k] += tv.V
				}
			case tc.IsStop() && (tv.IsVal() || tv.IsEmpty()):
				// Orphan zero from a structurally empty inner reduction.
				if tv.IsVal() && tv.V != 0 {
					fail("%s: nonzero orphan value %v at stop %v", name, tv, tc)
				}
				iv.next()
			case tc.IsStop() && tv.IsStop():
				if tc.StopLevel() != tv.StopLevel() {
					fail("%s: misaligned stops S%d vs S%d", name, tc.StopLevel(), tv.StopLevel())
				}
				m := tc.StopLevel()
				// Consume paired stops on outer streams (discarding at most
				// one pending coordinate from an empty trailing fiber each).
				for j := 0; j < n-1; j++ {
					offset := n - 1 - j
					if m < offset {
						continue
					}
					to := ic[j].peek()
					if to.IsVal() {
						ic[j].next()
						to = ic[j].peek()
					}
					if !to.IsStop() || to.StopLevel() != m-offset {
						fail("%s: outer stream %d misaligned: %v vs inner %v", name, j, to, tc)
					}
					ic[j].next()
				}
				ic[n-1].next()
				iv.next()
				// A stream's current coordinate spans a subtree of offset
				// levels below it; it retires when the stop closes it.
				for j := range have {
					offset := n - 1 - j
					if m >= offset-1 {
						have[j] = false
					}
				}
				if m >= n {
					flush(m)
				}
			case tc.IsDone() && tv.IsDone():
				for j := 0; j < n-1; j++ {
					if to := ic[j].next(); !to.IsDone() {
						fail("%s: outer stream %d misaligned at done: %v", name, j, to)
					}
				}
				ic[n-1].next()
				iv.next()
				for _, o := range outCrd {
					x.push(o, token.D())
				}
				x.push(outVal, token.D())
				return
			default:
				fail("%s: misaligned inputs %v vs %v", name, tc, tv)
			}
		}
	}
}
