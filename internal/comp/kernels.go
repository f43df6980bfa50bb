package comp

import (
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/token"
)

// The step constructors bind one lowered StepIR to its closure. The closures
// mirror the token-level semantics of internal/core exactly; only the
// execution strategy differs — whole streams per call instead of tokens per
// cycle. Slot layouts follow the canonical port order
// of graph.InPorts/graph.OutPorts, which IR.Validate has already checked, so
// the headers read positions without re-validating.

// stepRoot emits the single root reference.
func stepRoot(si *StepIR) step {
	out := si.Outs[0]
	return func(x *exec) {
		x.push(out, token.C(0))
		x.push(out, token.D())
	}
}

// stepScanner walks one storage level fiber by fiber: each reference token
// selects a fiber, whose coordinates and child references stream out in one
// cursor walk; stop tokens rise one level.
func stepScanner(si *StepIR) step {
	in := si.Ins[0]
	outCrd, outRef := si.Outs[0], si.Outs[1]
	operand, level, label := si.Tensor, si.Level, si.Label
	return func(x *exec) {
		lvl := x.level(label, operand, level)
		fibers := lvl.NumFibers()
		ref := x.cur(in)
		sep := false
		for {
			t := ref.next()
			switch t.Kind {
			case token.Val, token.Empty:
				if sep {
					x.push(outCrd, token.S(0))
					x.push(outRef, token.S(0))
				}
				if t.IsVal() {
					f := fiberOf(label, t, fibers)
					m := lvl.FiberLen(f)
					for i := 0; i < m; i++ {
						x.push(outCrd, token.C(lvl.Coord(f, i)))
						x.push(outRef, token.C(lvl.ChildRef(f, i)))
					}
				}
				sep = true
			case token.Stop:
				sep = false
				x.push(outCrd, token.S(t.StopLevel()+1))
				x.push(outRef, token.S(t.StopLevel()+1))
			case token.Done:
				if sep {
					x.push(outCrd, token.S(0))
					x.push(outRef, token.S(0))
				}
				x.push(outCrd, token.D())
				x.push(outRef, token.D())
				return
			}
		}
	}
}

// stepRepeat broadcasts each reference over its coordinate group
// (Definition 3.4).
func stepRepeat(si *StepIR) step {
	inCrd, inRef := si.Ins[0], si.Ins[1]
	out := si.Outs[0]
	name := si.Label
	return func(x *exec) {
		crd, ref := x.cur(inCrd), x.cur(inRef)
		var curTok token.Tok
		have := false
		for {
			t := crd.next()
			switch t.Kind {
			case token.Val:
				if !have {
					curTok = ref.next()
					if !curTok.IsVal() && !curTok.IsEmpty() {
						fail("%s: expected reference, got %v", name, curTok)
					}
					have = true
				}
				x.push(out, curTok)
			case token.Stop:
				m := t.StopLevel()
				if !have {
					// Either an empty fiber's reference or (for m >= 1) a
					// structural stop; reading decides.
					rt := ref.next()
					switch {
					case rt.IsVal() || rt.IsEmpty():
						if m >= 1 {
							rs := ref.next()
							if !rs.IsStop() || rs.StopLevel() != m-1 {
								fail("%s: misaligned ref stop %v for crd %v", name, rs, t)
							}
						}
					case rt.IsStop() && m >= 1 && rt.StopLevel() == m-1:
						// structural empty group; stop consumed
					default:
						fail("%s: misaligned ref token %v for crd stop %v", name, rt, t)
					}
				} else if m >= 1 {
					rs := ref.next()
					if !rs.IsStop() || rs.StopLevel() != m-1 {
						fail("%s: misaligned ref stop %v for crd %v", name, rs, t)
					}
				}
				have = false
				x.push(out, t)
			case token.Done:
				if d := ref.next(); !d.IsDone() {
					fail("%s: ref stream not done: %v", name, d)
				}
				x.push(out, token.D())
				return
			}
		}
	}
}

// stepMerge is the m-ary intersecter or unioner (Definitions 3.2–3.3) as one
// merge loop over the input coordinate streams, for every m. It applies
// core.Merger's rules in the same order, a whole stream per call instead of
// one set of heads per cycle, and fails with the same texts: the merger's
// conformance table, internal/core/testdata/merge_rules.txt, holds the two
// row by row.
func stepMerge(si *StepIR) step {
	union := si.Kind == graph.Union
	inCrd, inRef := splitPairs(si.Ins, si.Ways)
	outCrd := si.Outs[0]
	outRef := si.Outs[1 : 1+si.Ways]
	name := si.Label
	return func(x *exec) {
		m := len(inCrd)
		cc, cr := x.curs(inCrd), x.curs(inRef)
		heads := x.a.tokens(m)
		for i := range heads {
			heads[i] = cc[i].next()
		}
		for {
			nVal, nMin, nStop, nDone := 0, 0, 0, 0
			var minC int64
			stopLvl := -1
			for _, t := range heads {
				switch t.Kind {
				case token.Val:
					switch {
					case nVal == 0 || t.N < minC:
						minC, nMin = t.N, 1
					case t.N == minC:
						nMin++
					}
					nVal++
				case token.Stop:
					if stopLvl != -1 && stopLvl != t.StopLevel() {
						fail("%s: misaligned stop levels S%d vs S%d", name, stopLvl, t.StopLevel())
					}
					stopLvl = t.StopLevel()
					nStop++
				case token.Done:
					nDone++
				default:
					fail("%s: unexpected token %v on coordinate input", name, t)
				}
			}
			switch {
			case nDone == m:
				x.push(outCrd, token.D())
				for i := range cr {
					cr[i].next()
					x.push(outRef[i], token.D())
				}
				return
			case nDone > 0:
				fail("%s: done token while other inputs still streaming", name)
			case nStop == m:
				x.push(outCrd, token.S(stopLvl))
				for i := range heads {
					rt := cr[i].next()
					if !rt.IsStop() {
						fail("%s: reference stream misaligned at stop: got %v", name, rt)
					}
					x.push(outRef[i], rt)
					heads[i] = cc[i].next()
				}
			case union || nMin == m:
				x.push(outCrd, token.C(minC))
				for i, t := range heads {
					if t.IsVal() && t.N == minC {
						x.push(outRef[i], cr[i].next())
						heads[i] = cc[i].next()
					} else {
						x.push(outRef[i], token.N())
					}
				}
			default:
				for i, t := range heads {
					if t.IsVal() && (nStop > 0 || t.N == minC) {
						cr[i].next() // refs move in lockstep
						heads[i] = cc[i].next()
					}
				}
			}
		}
	}
}

// stepLocate is the iterate-locate block following a driver coordinate
// stream into one tensor level (Definition 4.1).
func stepLocate(si *StepIR) step {
	inCrd, inRef, inFib := si.Ins[0], si.Ins[1], si.Ins[2]
	outCrd, outRef, outLoc := si.Outs[0], si.Outs[1], si.Outs[2]
	operand, level, name := si.Tensor, si.Level, si.Label
	return func(x *exec) {
		lvl := x.level(name, operand, level)
		fibers := lvl.NumFibers()
		crd, ref, fib := x.cur(inCrd), x.cur(inRef), x.cur(inFib)
		var curTok token.Tok
		curFiber := 0
		have := false
		for {
			t := crd.next()
			switch t.Kind {
			case token.Val:
				rt := ref.next()
				if !have {
					curTok = fib.next()
					if !curTok.IsVal() && !curTok.IsEmpty() {
						fail("%s: expected fiber-select reference, got %v", name, curTok)
					}
					if curTok.IsVal() {
						curFiber = fiberOf(name, curTok, fibers)
					}
					have = true
				}
				if curTok.IsEmpty() {
					continue
				}
				loc, found := lvl.Locate(curFiber, t.N)
				if !found {
					continue
				}
				x.push(outCrd, t)
				x.push(outRef, rt)
				x.push(outLoc, token.C(loc))
			case token.Stop:
				m := t.StopLevel()
				rs := ref.next()
				if !rs.IsStop() || rs.StopLevel() != m {
					fail("%s: ref misaligned at stop %v: %v", name, t, rs)
				}
				if !have {
					ft := fib.next()
					switch {
					case ft.IsVal() || ft.IsEmpty():
						if m >= 1 {
							fs := fib.next()
							if !fs.IsStop() || fs.StopLevel() != m-1 {
								fail("%s: fiber-select misaligned %v", name, fs)
							}
						}
					case ft.IsStop() && m >= 1 && ft.StopLevel() == m-1:
					default:
						fail("%s: fiber-select misaligned %v at stop %v", name, ft, t)
					}
				} else if m >= 1 {
					fs := fib.next()
					if !fs.IsStop() || fs.StopLevel() != m-1 {
						fail("%s: fiber-select misaligned %v", name, fs)
					}
				}
				have = false
				x.push(outCrd, t)
				x.push(outRef, t)
				x.push(outLoc, t)
			case token.Done:
				if d := ref.next(); !d.IsDone() {
					fail("%s: ref stream not done", name)
				}
				if d := fib.next(); !d.IsDone() {
					fail("%s: fiber-select stream not done", name)
				}
				x.push(outCrd, token.D())
				x.push(outRef, token.D())
				x.push(outLoc, token.D())
				return
			}
		}
	}
}

// stepArray is the array block in load mode: references gather values in
// one pass over the reference stream (Definition 3.5).
func stepArray(si *StepIR) step {
	in := si.Ins[0]
	out := si.Outs[0]
	operand, name := si.Tensor, si.Label
	return func(x *exec) {
		vals := x.vals(name, operand)
		ref := x.cur(in)
		for {
			t := ref.next()
			switch t.Kind {
			case token.Val:
				if t.N < 0 || t.N >= int64(len(vals)) {
					fail("%s: reference %d out of range", name, t.N)
				}
				x.push(out, token.V(vals[t.N]))
			default:
				x.push(out, t)
				if t.IsDone() {
					return
				}
			}
		}
	}
}

// stepALU combines two aligned value streams point-wise, fused over the
// whole stream (Definition 3.6).
func stepALU(si *StepIR) step {
	inA, inB := si.Ins[0], si.Ins[1]
	out := si.Outs[0]
	name := si.Label
	var op func(a, b float64) float64
	switch si.Op {
	case lang.Mul:
		op = func(a, b float64) float64 { return a * b }
	case lang.Add:
		op = func(a, b float64) float64 { return a + b }
	default:
		op = func(a, b float64) float64 { return a - b }
	}
	return func(x *exec) {
		ca, cb := x.cur(inA), x.cur(inB)
		a := ca.next()
		b := cb.next()
		for {
			dataA := a.IsVal() || a.IsEmpty()
			dataB := b.IsVal() || b.IsEmpty()
			switch {
			// An orphan zero (a scalar reduction of a structurally empty
			// group, e.g. a parallel lane that received no fibers) has no
			// counterpart on the other operand: discard it, like the
			// droppers and reducers do.
			case a.IsVal() && a.V == 0 && (b.IsStop() || b.IsDone()):
				a = ca.next()
				continue
			case b.IsVal() && b.V == 0 && (a.IsStop() || a.IsDone()):
				b = cb.next()
				continue
			case dataA && dataB:
				if a.IsEmpty() && b.IsEmpty() {
					x.push(out, token.N())
				} else {
					va, vb := 0.0, 0.0
					if a.IsVal() {
						va = a.V
					}
					if b.IsVal() {
						vb = b.V
					}
					x.push(out, token.V(op(va, vb)))
				}
			case a.IsStop() && b.IsStop() && a.StopLevel() == b.StopLevel():
				x.push(out, a)
			case a.IsDone() && b.IsDone():
				x.push(out, token.D())
				return
			default:
				fail("%s: misaligned operands %v vs %v", name, a, b)
			}
			a = ca.next()
			b = cb.next()
		}
	}
}

// stepDrop lowers the coordinate dropper in each mode (Definition 3.9).
// It applies core.Dropper's rules in the same order, a whole stream per call
// instead of one rule per cycle, and fails with the same texts.
func stepDrop(si *StepIR) step {
	inOuter, inInner := si.Ins[0], si.Ins[1]
	outOuter, outInner := si.Outs[0], si.Outs[1]
	name, mode, val := si.Label, si.Drop, si.Drop != graph.DropCrd
	return func(x *exec) {
		co, ci := x.cur(inOuter), x.cur(inInner)
		held, paired, sent := -1, false, false
		for {
			t := ci.peek()
			data := t.IsVal() || val && t.IsEmpty()
			if held >= 0 && (data || t.IsDone()) {
				if sent {
					x.push(outInner, token.S(held))
				}
				held = -1
			}
			switch {
			case t.IsDone():
				if o := co.next(); !o.IsDone() {
					fail("%s: outer stream misaligned at done: %v", name, o)
				}
				x.push(outOuter, token.D())
				x.push(outInner, token.D())
				return
			case data && paired:
				x.push(outInner, t)
			case data:
				switch o := co.peek(); {
				case o.IsVal():
					co.next()
					if mode != graph.DropVal || t.IsVal() && t.V != 0 {
						x.push(outOuter, o)
						x.push(outInner, t)
						paired = !val
						sent = true
					}
				case val && o.IsStop():
					if t.IsVal() && t.V != 0 {
						fail("%s: nonzero value %v with no outer coordinate", name, t)
					}
				default:
					fail("%s: expected outer coordinate, got %v", name, o)
				}
			case t.IsStop():
				m := t.StopLevel()
				pair := m - 1
				if val {
					pair = m
				}
				if pair >= 0 || !paired {
					o := co.next()
					if !val && !paired && o.IsVal() {
						paired = true // the empty fiber's coordinate, dropped
						continue
					}
					if !o.IsStop() || o.StopLevel() != pair {
						fail("%s: outer stream misaligned: inner %v vs outer %v", name, t, o)
					}
					x.push(outOuter, o)
				}
				if val {
					x.push(outInner, t)
				} else {
					held = max(held, m)
					paired = false
				}
			default:
				fail("%s: unexpected token %v on inner input", name, t)
			}
			ci.next()
		}
	}
}
