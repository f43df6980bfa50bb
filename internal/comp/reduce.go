package comp

import "sam/internal/token"

// stepReduce lowers the reducer of Definition 3.7. Its slots follow
// reducePorts order — RedN coordinate streams outermost first, then values,
// on both sides. n = 0 is the scalar reducer, the one leaf fusion absorbs;
// every n >= 1 is one loop over core.GroupAcc, the group accumulator the
// cycle engines' core.Reducer drives too: it says what each innermost stop
// takes from the outer streams, sums the group and orders its emission, so
// this step only walks the streams.
func stepReduce(si *StepIR) step {
	n := si.RedN
	if n == 0 {
		return stepScalarReduce(si)
	}
	inCrd, inVal := si.Ins[:n], si.Ins[n]
	outCrd, outVal := si.Outs[:n], si.Outs[n]
	name := si.Label
	return func(x *exec) {
		ic, iv := x.curs(inCrd), x.cur(inVal)
		g := x.a.group(n)
		toks := x.a.tokens(n + 1)
		for {
			tc, tv := ic[n-1].next(), iv.next()
			for tc.IsStop() && (tv.IsVal() || tv.IsEmpty()) {
				// An orphan zero from a structurally empty inner reduction.
				if tv.IsVal() && tv.V != 0 {
					fail("%s: nonzero orphan value %v at stop %v", name, tv, tc)
				}
				tv = iv.next()
			}
			switch {
			case tc.IsVal() && (tv.IsVal() || tv.IsEmpty()):
				for j := 0; j < n-1; j++ {
					if g.Loaded(j) {
						continue
					}
					to := ic[j].next()
					if !to.IsVal() {
						fail("%s: expected outer coordinate on stream %d, got %v", name, j, to)
					}
					g.Load(j, to.N)
				}
				g.Add(tc.N, tv)
			case tc.IsStop() && tc == tv:
				m := tc.StopLevel()
				for j := 0; j < n-1; j++ {
					crd, stop, lvl := g.AtStop(j, m)
					if crd && (!stop || ic[j].peek().IsVal()) {
						if to := ic[j].next(); !to.IsVal() {
							fail("%s: outer stream %d misaligned: %v at inner %v", name, j, to, tc)
						}
					}
					if stop {
						if to := ic[j].next(); to != token.S(lvl) {
							fail("%s: outer stream %d misaligned: %v at inner %v", name, j, to, tc)
						}
					}
				}
				g.Stop(m)
				for g.Emitting() {
					from := g.Next(toks)
					for j := from; j < n; j++ {
						x.push(outCrd[j], toks[j])
					}
					x.push(outVal, toks[n])
				}
			case tc.IsDone() && tv.IsDone():
				for j := 0; j < n-1; j++ {
					if to := ic[j].next(); !to.IsDone() {
						fail("%s: outer stream %d misaligned at done: %v", name, j, to)
					}
				}
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
