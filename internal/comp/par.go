package comp

import (
	"sam/internal/core"
	"sam/internal/token"
)

// This file lowers the lane-parallelism blocks of paper Section 4.4: the
// parallelizer fork, the round-robin (and driver-rotated) joiners, and the
// cross-lane reduction combiner. The merged-loop state machines mirror
// internal/core's tick-level blocks token for token; the combiner
// reuses the shared pure codec core.MergeLaneStreams directly, since the
// lane streams are already materialized here.

// stepParallelize forks a stream across lanes: level < 0 advances the lane
// after every data token, level >= 0 after each stop of exactly that level;
// higher stops and done replicate to every lane.
func stepParallelize(si *StepIR) step {
	in := si.Ins[0]
	outs := si.Outs
	level := si.Level
	return func(x *exec) {
		cin := x.cur(in)
		lanes := len(outs)
		lane := 0
		for {
			t := cin.next()
			switch t.Kind {
			case token.Val, token.Empty:
				x.push(outs[lane], t)
				if level < 0 {
					lane = (lane + 1) % lanes
				}
			case token.Stop:
				switch {
				case level >= 0 && t.StopLevel() < level:
					x.push(outs[lane], t)
				case level >= 0 && t.StopLevel() == level:
					x.push(outs[lane], t)
					lane = (lane + 1) % lanes
				default:
					for _, o := range outs {
						x.push(o, t)
					}
					lane = 0
				}
			case token.Done:
				for _, o := range outs {
					x.push(o, t)
				}
				return
			}
		}
	}
}

// allClosed reports whether every lane cursor's head is a stop above the
// switch level (level >= 0) or any stop (level < 0).
func allClosed(cs []*cursor, level int) bool {
	for _, cc := range cs {
		t := cc.peek()
		if !t.IsStop() || (level >= 0 && t.StopLevel() <= level) {
			return false
		}
	}
	return true
}

// stepSerialize joins lane streams round-robin; deep joins (Level >= 0) are
// rotated by per-lane copies of the forked outermost coordinate stream.
func stepSerialize(si *StepIR) step {
	w := si.Ways
	ins := si.Ins[:w]
	out := si.Outs[0]
	level, name := si.Level, si.Label
	if level < 0 {
		return func(x *exec) {
			h := x.curs(ins)
			lanes := len(h)
			lane := 0
			for {
				t := h[lane].peek()
				switch t.Kind {
				case token.Val, token.Empty:
					x.push(out, h[lane].next())
					lane = (lane + 1) % lanes
				case token.Stop:
					if !allClosed(h, level) {
						fail("%s: lanes misaligned at stop %v", name, t)
					}
					lvl := t.StopLevel()
					for l := range h {
						if xt := h[l].next(); !xt.IsStop() || xt.StopLevel() != lvl {
							fail("%s: lanes disagree on closing stop: %v vs %v", name, t, xt)
						}
					}
					x.push(out, t)
					lane = 0
				case token.Done:
					for l := range h {
						if xt := h[l].next(); !xt.IsDone() {
							fail("%s: lanes misaligned at done: %v", name, xt)
						}
					}
					x.push(out, token.D())
					return
				}
			}
		}
	}
	drv := si.Ins[w : 2*w]
	return func(x *exec) {
		h := x.curs(ins)
		hd := x.curs(drv)
		lanes := len(h)
		noMore := func() bool {
			for l := range hd {
				if t := hd[l].peek(); t.IsVal() || t.IsEmpty() {
					return false
				}
			}
			return true
		}
		lane := 0
		for {
			d := hd[lane].peek()
			switch {
			case d.IsVal() || d.IsEmpty():
				hd[lane].next()
			chunk:
				for {
					t := h[lane].peek()
					switch {
					case t.IsVal() || t.IsEmpty():
						x.push(out, h[lane].next())
					case t.IsStop() && t.StopLevel() < level:
						x.push(out, h[lane].next())
					case t.IsStop() && t.StopLevel() == level:
						x.push(out, h[lane].next())
						break chunk
					case t.IsStop():
						if !noMore() {
							x.push(out, token.S(level))
						}
						break chunk
					default:
						fail("%s: lane stream ended mid-chunk", name)
					}
				}
				lane = (lane + 1) % lanes
			case d.IsStop():
				if !noMore() {
					lane = (lane + 1) % lanes
					continue
				}
				for l := range hd {
					if xt := hd[l].next(); !xt.IsStop() || xt.StopLevel() != d.StopLevel() {
						fail("%s: drivers disagree on closing stop: %v vs %v", name, d, xt)
					}
				}
				lvl := -1
				for l := range h {
					xt := h[l].next()
					if !xt.IsStop() || xt.StopLevel() <= level || (lvl >= 0 && xt.StopLevel() != lvl) {
						fail("%s: expected closing stop, lane holds %v", name, xt)
					}
					lvl = xt.StopLevel()
				}
				x.push(out, token.S(lvl))
				for l := range hd {
					if xt := hd[l].next(); !xt.IsDone() {
						fail("%s: driver misaligned at done: %v", name, xt)
					}
					if xt := h[l].next(); !xt.IsDone() {
						fail("%s: lanes misaligned at done: %v", name, xt)
					}
				}
				x.push(out, token.D())
				return
			default:
				fail("%s: driver stream ended before its closing stop", name)
			}
		}
	}
}

// stepSerializePair joins (coordinate, value) lane stream pairs keyed on
// the coordinate streams, forwarding orphan zero values on the value output.
func stepSerializePair(si *StepIR) step {
	w := si.Ways
	inCrd := si.Ins[:w]
	inVal := si.Ins[w : 2*w]
	outCrd, outVal := si.Outs[0], si.Outs[1]
	level, name := si.Level, si.Label
	if level < 0 {
		return func(x *exec) {
			hc := x.curs(inCrd)
			hv := x.curs(inVal)
			lanes := len(hc)
			lane := 0
			drainOrphans := func() {
				for l := range hc {
					ct := hc[l].peek()
					if !ct.IsStop() && !ct.IsDone() {
						continue
					}
					for {
						v := hv[l].peek()
						if !v.IsVal() && !v.IsEmpty() {
							break
						}
						if v.IsVal() && v.V != 0 {
							fail("%s: nonzero orphan value %v in lane %d", name, v, l)
						}
						x.push(outVal, hv[l].next())
					}
				}
			}
			for {
				tc := hc[lane].peek()
				switch tc.Kind {
				case token.Val, token.Empty:
					tv := hv[lane].peek()
					if !tv.IsVal() && !tv.IsEmpty() {
						fail("%s: value stream misaligned: crd %v vs val %v", name, tc, tv)
					}
					x.push(outCrd, hc[lane].next())
					x.push(outVal, hv[lane].next())
					lane = (lane + 1) % lanes
				case token.Stop:
					lvl := tc.StopLevel()
					if !allClosed(hc, level) {
						fail("%s: lanes misaligned at stop %v", name, tc)
					}
					drainOrphans()
					for l := range hc {
						if xt := hc[l].next(); xt.StopLevel() != lvl {
							fail("%s: lanes disagree on closing stop: %v vs %v", name, tc, xt)
						}
						if xt := hv[l].next(); !xt.IsStop() || xt.StopLevel() != lvl {
							fail("%s: value stream misaligned at closing stop: %v", name, xt)
						}
					}
					x.push(outCrd, tc)
					x.push(outVal, tc)
					lane = 0
				case token.Done:
					for l := range hc {
						if xt := hc[l].peek(); !xt.IsDone() {
							fail("%s: lanes misaligned at done: %v", name, xt)
						}
					}
					drainOrphans()
					for l := range hc {
						hc[l].next()
						if xt := hv[l].next(); !xt.IsDone() {
							fail("%s: value stream misaligned at done: %v", name, xt)
						}
					}
					x.push(outCrd, token.D())
					x.push(outVal, token.D())
					return
				}
			}
		}
	}
	drv := si.Ins[2*w : 3*w]
	return func(x *exec) {
		hc := x.curs(inCrd)
		hv := x.curs(inVal)
		hd := x.curs(drv)
		lanes := len(hc)
		noMore := func() bool {
			for l := range hd {
				if t := hd[l].peek(); t.IsVal() || t.IsEmpty() {
					return false
				}
			}
			return true
		}
		// drainOrphans forwards the zero values a lane holds while its
		// coordinate head is a stop or done.
		drainOrphans := func(l int) {
			for {
				v := hv[l].peek()
				if !v.IsVal() && !v.IsEmpty() {
					return
				}
				if v.IsVal() && v.V != 0 {
					fail("%s: nonzero orphan value %v in lane %d", name, v, l)
				}
				x.push(outVal, hv[l].next())
			}
		}
		lane := 0
		for {
			d := hd[lane].peek()
			switch {
			case d.IsVal() || d.IsEmpty():
				hd[lane].next()
			chunk:
				for {
					tc := hc[lane].peek()
					switch {
					case tc.IsVal() || tc.IsEmpty():
						tv := hv[lane].peek()
						if !tv.IsVal() && !tv.IsEmpty() {
							fail("%s: value stream misaligned: crd %v vs val %v", name, tc, tv)
						}
						x.push(outCrd, hc[lane].next())
						x.push(outVal, hv[lane].next())
					case tc.IsStop() && tc.StopLevel() <= level:
						drainOrphans(lane)
						if tv := hv[lane].next(); !tv.IsStop() || tv.StopLevel() != tc.StopLevel() {
							fail("%s: misaligned stops %v vs %v", name, tc, tv)
						}
						x.push(outCrd, hc[lane].next())
						x.push(outVal, tc)
						if tc.StopLevel() == level {
							break chunk
						}
					case tc.IsStop():
						drainOrphans(lane)
						if !noMore() {
							x.push(outCrd, token.S(level))
							x.push(outVal, token.S(level))
						}
						break chunk
					default:
						fail("%s: lane stream ended mid-chunk", name)
					}
				}
				lane = (lane + 1) % lanes
			case d.IsStop():
				if !noMore() {
					lane = (lane + 1) % lanes
					continue
				}
				for l := range hd {
					if xt := hd[l].next(); !xt.IsStop() || xt.StopLevel() != d.StopLevel() {
						fail("%s: drivers disagree on closing stop: %v vs %v", name, d, xt)
					}
				}
				lvl := -1
				for l := range hc {
					drainOrphans(l)
					xt := hc[l].next()
					if !xt.IsStop() || xt.StopLevel() <= level || (lvl >= 0 && xt.StopLevel() != lvl) {
						fail("%s: expected closing stop, lane holds %v", name, xt)
					}
					lvl = xt.StopLevel()
					if v := hv[l].next(); !v.IsStop() || v.StopLevel() != xt.StopLevel() {
						fail("%s: value stream misaligned at closing stop: %v", name, v)
					}
				}
				x.push(outCrd, token.S(lvl))
				x.push(outVal, token.S(lvl))
				for l := range hc {
					if xt := hd[l].next(); !xt.IsDone() {
						fail("%s: driver misaligned at done: %v", name, xt)
					}
					if xt := hc[l].next(); !xt.IsDone() {
						fail("%s: lanes misaligned at done: %v", name, xt)
					}
					if xt := hv[l].next(); !xt.IsDone() {
						fail("%s: value stream misaligned at done: %v", name, xt)
					}
				}
				x.push(outCrd, token.D())
				x.push(outVal, token.D())
				return
			default:
				fail("%s: driver stream ended before its closing stop", name)
			}
		}
	}
}

// stepLaneReduce merges two lanes' output stream bundles (m coordinate
// streams plus values per lane) by adding values at matching coordinate
// points, via the shared pure codec. Input slots follow LaneReduce port
// order: side 0's m coordinate streams then its values, then side 1's.
func stepLaneReduce(si *StepIR) step {
	m := si.RedN
	crdA, valA := si.Ins[:m], si.Ins[m]
	crdB, valB := si.Ins[m+1:2*m+1], si.Ins[2*m+1]
	outCrd := si.Outs[:m]
	outVal := si.Outs[m]
	name := si.Label
	return func(x *exec) {
		collect := func(slots []int) []token.Stream {
			out := make([]token.Stream, len(slots))
			for i, s := range slots {
				out[i] = x.streams[s]
			}
			return out
		}
		merged, err := core.MergeLaneStreams(m, collect(crdA), x.streams[valA], collect(crdB), x.streams[valB])
		if err != nil {
			fail("%s: %v", name, err)
		}
		for q := 0; q < m; q++ {
			for _, t := range merged[q] {
				x.push(outCrd[q], t)
			}
		}
		for _, t := range merged[m] {
			x.push(outVal, t)
		}
	}
}
